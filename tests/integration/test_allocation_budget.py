"""The access path allocates nothing the cyclic collector must track
(DESIGN, "hot-path data layout"): a profiled run may grow the tracked
population by its cache copies and its shipped batches, not by its
first touches or logged entries."""

import gc

from repro.core.profiler import ProfilerSuite
from repro.runtime.djvm import DJVM
from repro.workloads.barnes_hut import BarnesHutWorkload

#: tracked objects one run leaves behind whatever it executes (result,
#: counters, per-thread state: ~2 200 measured) with headroom.
FIXED_SLACK = 5_000
#: an OAL batch is four tracked objects (itself + three columns) and
#: closes an interval (record, written set, hook state); with headroom.
PER_BATCH = 64


def test_tracked_objects_do_not_scale_with_logged_entries():
    djvm = DJVM(4)
    workload = BarnesHutWorkload(n_bodies=1024, rounds=2, n_threads=4, seed=3)
    workload.build(djvm)
    suite = ProfilerSuite(djvm, correlation=True)  # full sampling, OALs shipped
    programs = workload.programs()

    gc.collect()
    before = len(gc.get_objects())
    djvm.run(programs)
    gc.collect()
    growth = len(gc.get_objects()) - before

    n_copies = sum(len(djvm.hlrc.copy_ids(node_id)) for node_id in djvm.hlrc.heaps)
    profiler = suite.access_profiler
    budget = n_copies + PER_BATCH * profiler.total_batches + FIXED_SLACK
    # The budget is tighter than one object per logged entry, and a
    # first touch is at least a logged entry at full sampling.
    assert budget < profiler.total_logged
    assert growth <= budget, (growth, n_copies, profiler.total_batches, profiler.total_logged)
