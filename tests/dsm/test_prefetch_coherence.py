"""Coherence interplay of connectivity prefetching: bundled copies must
behave exactly like individually faulted copies under invalidation."""

from repro.core.prefetch import ConnectivityPrefetcher
from repro.dsm.states import RealState
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel

from tests.conftest import simple_class, wrap_main


def setup():
    """Node 0 homes a parent+child pair; thread 0 (node 1) learns the
    path, thread 1 (node 0) writes the child."""
    djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
    cls = simple_class(djvm, "Node", 128)
    pairs = []
    for _ in range(6):
        child = djvm.allocate(cls, 0)
        parent = djvm.allocate(cls, 0, refs=[child.obj_id])
        pairs.append((parent, child))
    reader = djvm.spawn_thread(1)
    writer = djvm.spawn_thread(0)
    prefetcher = ConnectivityPrefetcher(djvm.gos, threshold=0.5, min_faults=2)
    djvm.add_hook(prefetcher)
    return djvm, pairs, prefetcher


class TestPrefetchedCopyCoherence:
    def test_bundled_copy_invalidated_by_later_write(self):
        djvm, pairs, prefetcher = setup()
        # Reader warms the path (parent then child) so late pairs bundle;
        # then the writer updates the last child; after the barrier the
        # reader's re-read of that child must fault fresh data.
        last_parent, last_child = pairs[-1]
        reader_ops = []
        for parent, child in pairs:
            reader_ops += [P.read(parent.obj_id), P.read(child.obj_id)]
        reader_ops += [P.barrier(0), P.barrier(1), P.read(last_child.obj_id), P.barrier(2)]
        writer_ops = [
            P.barrier(0),
            P.write(last_child.obj_id),
            P.barrier(1),
            P.barrier(2),
        ]
        result = djvm.run({0: wrap_main(reader_ops), 1: wrap_main(writer_ops)})
        assert prefetcher.bundled_objects > 0  # the path was learned
        copy = djvm.hlrc.copy(1, last_child.obj_id)
        assert copy is not None
        # The reader refetched after invalidation: version is current.
        assert copy.fetched_version == djvm.hlrc.home_version[last_child.obj_id]
        assert copy.fetched_version >= 1
        assert result.counters["invalidations"] >= 1

    def test_bundled_copies_carry_fault_time_version(self):
        """A bundled copy's fetched_version equals the home version at
        bundle time — never newer, never a stale zero."""
        djvm, pairs, prefetcher = setup()
        ops = []
        for parent, child in pairs:
            ops += [P.read(parent.obj_id), P.read(child.obj_id)]
        djvm.run({0: wrap_main(ops + [P.barrier(0)]), 1: wrap_main([P.barrier(0)])})
        for parent, child in pairs:
            copy = djvm.hlrc.copy(1, child.obj_id)
            assert copy is not None
            assert copy.fetched_version == djvm.hlrc.home_version[child.obj_id]
            assert copy.real_state is RealState.VALID

    def test_prefetching_changes_no_protocol_outcomes(self):
        """Faults drop, but diffs/notices/intervals (schedule-independent
        protocol state) are identical with and without the prefetcher."""
        def run(enable):
            djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
            cls = simple_class(djvm, "Node", 128)
            pairs = []
            for _ in range(6):
                child = djvm.allocate(cls, 0)
                parent = djvm.allocate(cls, 0, refs=[child.obj_id])
                pairs.append((parent, child))
            djvm.spawn_thread(1)
            if enable:
                prefetcher = ConnectivityPrefetcher(djvm.gos, threshold=0.5, min_faults=2)
                djvm.add_hook(prefetcher)
            ops = []
            for parent, child in pairs:
                ops += [P.read(parent.obj_id), P.read(child.obj_id), P.write(child.obj_id)]
            result = djvm.run({0: wrap_main(ops + [P.barrier(0)])})
            return result.counters

        plain = run(False)
        prefetched = run(True)
        for key in ("diffs", "notices", "intervals"):
            assert plain[key] == prefetched[key]
        assert prefetched["faults"] < plain["faults"]
