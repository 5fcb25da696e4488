"""Tests for inter-object affinity prefetching (type-3 affinity)."""

import pytest

from repro.core.prefetch import ConnectivityPrefetcher, PathProfile
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel

from tests.conftest import wrap_main


class TestPathProfile:
    def test_follow_raises_heat(self):
        from repro.heap.heap import GlobalObjectSpace

        gos = GlobalObjectSpace()
        cls = gos.registry.define("Node", 64)
        child = gos.allocate(cls, 0)
        parent = gos.allocate(cls, 0, refs=[child.obj_id])
        profile = PathProfile(window=4)
        profile.observe_fault(0, parent)
        profile.observe_access(0, child.obj_id)
        assert profile.heat(cls.class_id, 0) == 1.0

    def test_unfollowed_field_stays_cold(self):
        from repro.heap.heap import GlobalObjectSpace

        gos = GlobalObjectSpace()
        cls = gos.registry.define("Node", 64)
        child = gos.allocate(cls, 0)
        parent = gos.allocate(cls, 0, refs=[child.obj_id])
        profile = PathProfile(window=2)
        profile.observe_fault(0, parent)
        profile.observe_access(0, 999)  # unrelated accesses age the watch out
        profile.observe_access(0, 998)
        profile.observe_access(0, child.obj_id)  # too late
        assert profile.heat(cls.class_id, 0) == 0.0

    def test_heat_is_a_fraction_over_faults(self):
        from repro.heap.heap import GlobalObjectSpace

        gos = GlobalObjectSpace()
        cls = gos.registry.define("Node", 64)
        child = gos.allocate(cls, 0)
        parents = [gos.allocate(cls, 0, refs=[child.obj_id]) for _ in range(4)]
        profile = PathProfile(window=4)
        for i, parent in enumerate(parents):
            profile.observe_fault(0, parent)
            if i % 2 == 0:
                profile.observe_access(0, child.obj_id)
            else:
                profile.observe_access(0, 999)
                profile.observe_access(0, 998)
                profile.observe_access(0, 997)
                profile.observe_access(0, 996)
        assert profile.heat(cls.class_id, 0) == pytest.approx(0.5)

    def test_per_thread_watches_independent(self):
        from repro.heap.heap import GlobalObjectSpace

        gos = GlobalObjectSpace()
        cls = gos.registry.define("Node", 64)
        child = gos.allocate(cls, 0)
        parent = gos.allocate(cls, 0, refs=[child.obj_id])
        profile = PathProfile()
        profile.observe_fault(0, parent)
        profile.observe_access(1, child.obj_id)  # other thread: no credit
        assert profile.heat(cls.class_id, 0) == 0.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            PathProfile(window=0)


def linked_chain_djvm(n_parents=8, fanout_hot=True):
    """Parents on node 0, each referencing a hot child (+ a cold child);
    the accessing thread lives on node 1."""
    djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
    cls = djvm.define_class("Node", 128)
    parents, hot, cold = [], [], []
    for _ in range(n_parents):
        h = djvm.allocate(cls, 0)
        c = djvm.allocate(cls, 0)
        p = djvm.allocate(cls, 0, refs=[h.obj_id, c.obj_id])
        parents.append(p)
        hot.append(h)
        cold.append(c)
    djvm.spawn_thread(1)
    return djvm, cls, parents, hot, cold


class TestConnectivityPrefetcher:
    def run_chain(self, enable: bool):
        djvm, cls, parents, hot, cold = linked_chain_djvm()
        if enable:
            prefetcher = ConnectivityPrefetcher(
                djvm.gos, threshold=0.5, min_faults=2, max_depth=1
            )
            djvm.add_hook(prefetcher)
        ops = []
        # Always fault the parent then read its hot child (field 0).
        for p, h in zip(parents, hot):
            ops.append(P.read(p.obj_id))
            ops.append(P.read(h.obj_id))
            ops.append(P.compute(1000))
        result = djvm.run({0: wrap_main(ops + [P.barrier(0)])})
        return djvm, result

    def test_learned_prefetch_cuts_faults(self):
        base = self.run_chain(enable=False)[1].counters["faults"]
        with_pf, result = self.run_chain(enable=True)
        assert result.counters["faults"] < base
        assert with_pf.hlrc.prefetcher.bundled_objects > 0

    def test_add_hook_alone_makes_the_chain_bundle(self):
        """One registration does both halves: the hook feeds the learner
        and the engine consults it at fault time."""
        djvm, cls, parents, hot, cold = linked_chain_djvm()
        prefetcher = ConnectivityPrefetcher(djvm.gos, threshold=0.5, min_faults=2, max_depth=1)
        djvm.add_hook(prefetcher)
        assert djvm.hlrc.prefetcher is prefetcher
        ops = []
        for p, h in zip(parents, hot):
            ops += [P.read(p.obj_id), P.read(h.obj_id), P.compute(1000)]
        result = djvm.run({0: wrap_main(ops + [P.barrier(0)])})
        assert prefetcher.bundled_objects > 0
        assert result.counters["faults"] < 2 * len(parents)

    def test_second_prefetcher_rejected(self):
        djvm = linked_chain_djvm()[0]
        djvm.add_hook(ConnectivityPrefetcher(djvm.gos))
        with pytest.raises(ValueError, match="already attached"):
            djvm.add_hook(ConnectivityPrefetcher(djvm.gos))

    def test_cold_fields_never_bundled(self):
        djvm, _ = self.run_chain(enable=True)
        # Cold children were never accessed: none may have been installed.
        gos = djvm.gos
        heap = djvm.hlrc.heaps[1]
        cold_installed = 0
        for obj in gos:
            pass  # (cold ids are odd allocations; recompute from refs)
        # Recreate structure knowledge: parents hold [hot, cold] refs.
        for obj in gos:
            if len(obj.refs) == 2:
                cold_id = obj.refs[1]
                if cold_id in heap:
                    cold_installed += 1
        assert cold_installed == 0

    def test_cross_home_successors_not_bundled(self):
        """A hot successor homed elsewhere cannot ride the reply."""
        djvm = DJVM(n_nodes=3, costs=CostModel.fast_test())
        cls = djvm.define_class("Node", 128)
        away = djvm.allocate(cls, 2)  # homed on a third node
        parents = [
            djvm.allocate(cls, 0, refs=[away.obj_id]) for _ in range(6)
        ]
        djvm.spawn_thread(1)
        prefetcher = ConnectivityPrefetcher(djvm.gos, threshold=0.5, min_faults=2)
        djvm.add_hook(prefetcher)
        ops = []
        for p in parents:
            ops.append(P.read(p.obj_id))
            ops.append(P.read(away.obj_id))
        djvm.run({0: wrap_main(ops + [P.barrier(0)])})
        # 'away' may be hot, but it is never bundled (different home);
        # it faults exactly once on its own.
        assert prefetcher.bundled_bytes == 0

    def test_transitive_depth(self):
        """max_depth=2 pulls grandchildren along learned hot paths."""
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        cls = djvm.define_class("Node", 128)
        chains = []
        for _ in range(8):
            gc = djvm.allocate(cls, 0)
            ch = djvm.allocate(cls, 0, refs=[gc.obj_id])
            pa = djvm.allocate(cls, 0, refs=[ch.obj_id])
            chains.append((pa, ch, gc))
        djvm.spawn_thread(1)
        prefetcher = ConnectivityPrefetcher(
            djvm.gos, threshold=0.5, min_faults=2, max_depth=2
        )
        djvm.add_hook(prefetcher)
        ops = []
        for pa, ch, gc in chains:
            ops += [P.read(pa.obj_id), P.read(ch.obj_id), P.read(gc.obj_id)]
        result = djvm.run({0: wrap_main(ops + [P.barrier(0)])})
        # Late chains ride fully on one fault: 3 objects per 1 fault.
        assert result.counters["faults"] < 3 * len(chains)

    def test_invalid_config(self):
        from repro.heap.heap import GlobalObjectSpace

        gos = GlobalObjectSpace()
        with pytest.raises(ValueError):
            ConnectivityPrefetcher(gos, threshold=0)
        with pytest.raises(ValueError):
            ConnectivityPrefetcher(gos, max_depth=0)
