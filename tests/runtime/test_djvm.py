"""Tests for the DJVM facade."""

import gc

import pytest

from repro.runtime import program as P
from repro.runtime.djvm import DJVM, run_fingerprint
from repro.sim.costs import CostModel
from repro.workloads.sor import SORWorkload

from tests.conftest import GC_STATES, caller_gc_state, gc_state, simple_class, wrap_main


class TestSetup:
    def test_spawn_thread_placement(self):
        djvm = DJVM(n_nodes=2)
        t = djvm.spawn_thread(1)
        assert t.node_id == 1
        assert t.thread_id in djvm.cluster[1].thread_ids

    def test_spawn_bad_node_rejected(self):
        with pytest.raises(ValueError):
            DJVM(n_nodes=2).spawn_thread(5)

    def test_round_robin_placement(self):
        djvm = DJVM(n_nodes=3)
        djvm.spawn_threads(6, placement="round_robin")
        assert [t.node_id for t in djvm.threads] == [0, 1, 2, 0, 1, 2]

    def test_block_placement(self):
        djvm = DJVM(n_nodes=2)
        djvm.spawn_threads(4, placement="block")
        assert [t.node_id for t in djvm.threads] == [0, 0, 1, 1]

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            DJVM(n_nodes=2).spawn_threads(2, placement="nope")

    def test_define_class_delegates(self):
        djvm = DJVM(n_nodes=1)
        cls = djvm.define_class("X", 32)
        assert djvm.registry.get("X") is cls

    def test_timer_without_a_deadline_rejected(self):
        """``next_fire_ns`` is part of the TimerHook contract: a hook
        that only polls is refused at attach time, not run slowly."""

        class PollOnly:
            def maybe_fire(self, thread):
                pass

        djvm = DJVM(n_nodes=1)
        with pytest.raises(TypeError, match="next_fire_ns"):
            djvm.add_timer(PollOnly())
        assert djvm.timers == []


class TestRunResult:
    def run_simple(self):
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        cls = simple_class(djvm)
        obj = djvm.allocate(cls, 0)
        djvm.spawn_threads(2)
        return djvm, djvm.run(
            {
                0: wrap_main([P.read(obj.obj_id), P.barrier(0)]),
                1: wrap_main([P.read(obj.obj_id), P.barrier(0)]),
            }
        )

    def test_execution_time_is_max_finish(self):
        djvm, res = self.run_simple()
        assert res.execution_time_ms == max(res.thread_finish_ms.values())

    def test_counters_surface(self):
        djvm, res = self.run_simple()
        assert res.counters["faults"] == 1  # thread 1 faults the remote copy
        assert res.counters["intervals"] == 4

    def test_total_cpu_aggregates(self):
        djvm, res = self.run_simple()
        total = res.total_cpu
        assert total.total_ns == sum(c.total_ns for c in res.thread_cpu.values())

    def test_summary_renders(self):
        djvm, res = self.run_simple()
        s = res.summary()
        assert "execution" in s and "GOS traffic" in s


class GcProbe:
    """A first-touch hook (so the run keeps the one pass) recording the
    collector's state at every interval close, inside the run."""

    def __init__(self) -> None:
        self.seen: set[tuple[bool, int]] = set()

    def on_interval_open(self, thread) -> None:
        pass

    def on_interval_close(self, thread, interval, sync_dst) -> None:
        self.seen.add((gc.isenabled(), gc.get_freeze_count()))

    def on_access(self, thread, obj, **kw) -> None:  # pragma: no cover
        pass

    def fast_on_access(self, thread, ids, faulted) -> None:
        return None


class TestGcQuietRuns:
    """``DJVM.run`` freezes the pre-run heap out of the cyclic collector
    when the caller left the collector enabled and froze nothing, and
    otherwise leaves the caller's GC state alone; either way the run's
    result is the same, and the caller's state is back after it."""

    def run_sor(self):
        djvm = DJVM(4)
        workload = SORWorkload(n=64, rounds=3, n_threads=4, seed=1)
        workload.build(djvm)
        probe = GcProbe()
        djvm.add_hook(probe)
        res = djvm.run(workload.programs())
        assert djvm.replay_routing["runs"] > 0
        return run_fingerprint(djvm, res), probe.seen

    def test_fingerprint_and_caller_state_under_every_gc_state(self):
        fps = {}
        for state in GC_STATES:
            with caller_gc_state(state):
                before = gc_state()
                frozen_before = gc.get_freeze_count()
                fps[state], seen = self.run_sor()
                assert gc_state() == before
            enabled = {e for e, _ in seen}
            frozen = [n for _, n in seen]
            assert enabled == {state != "disabled"}
            if state == "enabled":
                # The run froze the pre-run heap and left the collector on.
                assert min(frozen) > 0
            elif state == "disabled":
                assert set(frozen) == {0}
            else:
                # The caller's freeze stands; the run froze nothing more.
                assert 0 < max(frozen) <= frozen_before
        assert fps["enabled"] == fps["disabled"] == fps["frozen"]
