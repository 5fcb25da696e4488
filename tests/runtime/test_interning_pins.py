"""Pinned lane-table rows of the three benchmark workloads.

The vector engine's unit is a segment body — every op between two sync
ops — and a program's lane table holds one row per body of its store.
``CompiledProgram.vector_runs()`` maps each segment's first pc to its
body's row, so a body the workload emits once and runs again by
reference (``ColumnEmitter.repeat``: SOR's sweeps) is one row however
often its segment runs, and a flat-emitted program (Barnes-Hut,
Water-Spatial) has one row per segment.  The row count decides the lane
table's size, so it is pinned per thread at the end-to-end benchmark's
sizes (8 nodes, block placement, seed 0), with every row checked to be
its body: the same ops, numbered in store order.
"""

import pytest

from repro.runtime.djvm import DJVM
from repro.runtime.program import compile_program
from repro.workloads import BarnesHutWorkload, SORWorkload, WaterSpatialWorkload

SIZES = {
    "SOR": (SORWorkload, {"n": 8192, "rounds": 60}),
    "Barnes-Hut": (BarnesHutWorkload, {"n_bodies": 4096, "rounds": 5}),
    "Water-Spatial": (WaterSpatialWorkload, {"n_molecules": 2048, "rounds": 10, "grid": 6}),
}

#: per thread: (segments the one pass takes, distinct bodies = rows).
ROWS = {
    "SOR": [(121, 4)] * 8,
    "Barnes-Hut": [(26, 26)] * 8,
    "Water-Spatial": [(21, 21)] * 8,
}


def thread_rows(name: str) -> list[tuple[int, int]]:
    """Each thread's (segments, rows), every row checked against its body."""
    cls, sizes = SIZES[name]
    workload = cls(n_threads=8, seed=0, **sizes)
    workload.build(DJVM(8), placement="block")
    counts = []
    for _tid, ops in sorted(workload.programs().items()):
        program = compile_program(ops)
        runs = program.vector_runs()
        lo, hi = program.body_lo, program.body_hi
        bodies = [b for b in range(len(lo)) if hi[b] > lo[b]]
        # Every segment with ops maps to its own body's row and length.
        assert runs == {
            base: (b, hi[b] - lo[b])
            for base, b in zip(program.seg_base, program.seg_body)
            if hi[b] > lo[b]
        }
        assert sorted({row for row, _ in runs.values()}) == bodies
        # A row's ops are the same at every pc that runs it.
        first: dict[int, tuple] = {}
        for pc, (row, n_ops) in sorted(runs.items()):
            body = tuple(program.decode(pc, pc + n_ops))
            assert first.setdefault(row, body) == body
        counts.append((len(runs), len(bodies)))
    return counts


@pytest.mark.parametrize("name", sorted(ROWS))
def test_rows_are_the_distinct_bodies(name):
    assert thread_rows(name) == ROWS[name]
