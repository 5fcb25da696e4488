"""Memory pin: the object table costs a few int columns per object.

A Barnes-Hut build at the end-to-end benchmark's sizes (36 031 objects)
keeps about 85 host bytes per object in the global object space: seven
8-byte columns with up to a quarter of capacity slack, plus its CSR
reference targets.  One record and one ``refs`` list per object cost
about 204.  The count is every allocation still alive after the build
whose innermost frame is a line of ``GlobalObjectSpace`` (records, ref
lists and columns alike are made there).
"""

import inspect
import tracemalloc

import repro.heap.heap as heap
from repro.runtime.djvm import DJVM
from repro.workloads import BarnesHutWorkload

#: host bytes per object the space may keep.
MAX_BYTES_PER_OBJECT = 100


def test_barnes_hut_object_table_bytes_per_object():
    lines, first = inspect.getsourcelines(heap.GlobalObjectSpace)
    last = first + len(lines)
    tracemalloc.start()
    try:
        djvm = DJVM(8)
        BarnesHutWorkload(n_threads=8, seed=0, n_bodies=4096, rounds=5).build(djvm)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(
        trace.size
        for trace in snapshot.traces
        if trace.traceback[0].filename == heap.__file__
        and first <= trace.traceback[0].lineno < last
    )
    n_objects = len(djvm.gos)
    assert n_objects == 36_031
    assert held / n_objects <= MAX_BYTES_PER_OBJECT, held / n_objects
