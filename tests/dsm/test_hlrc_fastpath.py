"""The HLRC access fast path must be observationally transparent.

The engine has two hook-dispatch routes: the plan resolved by
``HomeBasedLRC.add_hook`` (positional ``fast_on_access``; first-touch
hooks fired once per (interval, object), every-access hooks on every
op) and the generic keyword fan-out (every hook on every access).
Registering one more, inert hook without ``fast_on_access`` forces the
generic route, so running the same program both ways and comparing
everything the run left behind pins down that the plan changes
*nothing* the simulation can observe — including when prefetch bundles
satisfy accesses that would otherwise fault.
"""

import pytest

from repro.core.adaptive import AdaptiveRateController
from repro.core.profiler import ProfilerSuite
from repro.runtime import program as P
from repro.runtime.djvm import DJVM, run_fingerprint
from repro.sim.costs import CostModel
from repro.sim.network import MessageKind
from repro.workloads.barnes_hut import BarnesHutWorkload
from repro.workloads.sor import SORWorkload
from repro.workloads.water_spatial import WaterSpatialWorkload

from tests.conftest import record_deliveries, simple_class, tracked_per_interval, wrap_main


class NullHook:
    """Cost-free hook whose only effect is forcing the generic fan-out
    (it does not provide ``fast_on_access``)."""

    def on_interval_open(self, thread):
        pass

    def on_access(self, thread, obj, **kw):
        pass

    def on_interval_close(self, thread, interval, sync_dst):
        pass


class StubPrefetcher:
    """Always bundles a fixed set of objects into any fault reply; its
    hook entries do nothing, so it leaves the dispatch plan planned."""

    def __init__(self, extras):
        self.extras = extras

    def bundle_for(self, thread, obj):
        return [e for e in self.extras if e.obj_id != obj.obj_id]

    def on_interval_open(self, thread):
        pass

    def on_access(self, thread, obj, **kwargs):
        pass

    def fast_on_access(self, thread, ids, faulted):
        pass

    def on_interval_close(self, thread, interval, sync_dst):
        pass


def run_scenario(*, force_fanout: bool, with_prefetch: bool = False):
    """Two nodes ping-ponging writes over shared objects, under full
    sampling; returns every observable the fast path could perturb."""
    djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
    cls = simple_class(djvm, "Obj", 64)
    objs = [djvm.allocate(cls, i % 2) for i in range(4)]
    djvm.spawn_threads(2)
    suite = ProfilerSuite(djvm, correlation=True)
    suite.set_full_sampling()
    if force_fanout:
        djvm.add_hook(NullHook())
    if with_prefetch:
        djvm.add_hook(StubPrefetcher(objs))
    ids = [o.obj_id for o in objs]
    programs = {
        0: wrap_main(
            [P.read(ids[0]), P.write(ids[1]), P.barrier(0)]
            + [P.read(ids[2], repeat=5), P.write(ids[0]), P.barrier(1)]
            + [P.read(ids[1]), P.read(ids[3]), P.barrier(2)]
        ),
        1: wrap_main(
            [P.read(ids[1]), P.write(ids[0]), P.barrier(0)]
            + [P.read(ids[3], repeat=5), P.write(ids[2]), P.barrier(1)]
            + [P.read(ids[0]), P.read(ids[2]), P.barrier(2)]
        ),
    }
    result = djvm.run(programs)
    return {
        "counters": dict(result.counters),
        "clocks": [t.clock.now_ns for t in djvm.threads],
        "cpu_oal_ns": [t.cpu.oal_logging_ns for t in djvm.threads],
        "logged": suite.access_profiler.total_logged,
        "fetches": djvm.cluster.network.stats.count_by_kind.get(
            MessageKind.OBJECT_FETCH_DATA, 0
        ),
    }


class TestFastDispatchTransparency:
    def test_counters_and_clocks_match_generic_fanout(self):
        fast = run_scenario(force_fanout=False)
        slow = run_scenario(force_fanout=True)
        assert fast == slow
        # The scenario actually exercises the interesting machinery.
        assert fast["counters"]["faults"] > 0
        assert fast["counters"]["invalidations"] > 0
        assert fast["logged"] > 0

    def test_prefetch_bundle_hits_match_generic_fanout(self):
        fast = run_scenario(force_fanout=False, with_prefetch=True)
        slow = run_scenario(force_fanout=True, with_prefetch=True)
        assert fast == slow
        # Bundles satisfy accesses that fault without prefetching.
        plain = run_scenario(force_fanout=False)
        assert fast["counters"]["faults"] < plain["counters"]["faults"]

    def test_keyword_fanout_logs_each_object_once(self):
        """The fan-out shows the profiler every access: repeats in the
        interval must add no OAL entry, class id or charge."""
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        cls = simple_class(djvm, "Obj", 64)
        home, remote = (djvm.allocate(cls, node).obj_id for node in (0, 1))
        djvm.spawn_threads(1)
        suite = ProfilerSuite(djvm, correlation=True)
        suite.set_full_sampling()
        djvm.add_hook(NullHook())
        delivered = record_deliveries(suite.collector)
        ops = [P.read(home), P.write(remote), P.read(home), P.read(remote, repeat=3)]
        djvm.run({0: wrap_main(ops + [P.barrier(0)])})
        assert suite.access_profiler.total_logged == 2
        (batch,) = delivered
        assert (batch.obj_ids, batch.class_ids) == ([home, remote], [cls.class_id] * 2)
        costs = djvm.costs
        # Two logs, one trap (the remote object faulted), and the
        # false-invalid reset of both when the next interval opens.
        assert djvm.threads[0].cpu.oal_logging_ns == (
            2 * costs.oal_log_ns + costs.gos_trap_ns + 2 * costs.false_invalid_reset_ns
        )

    def test_valid_copy_hit_adds_no_protocol_work(self):
        """Re-reading a valid copy must not fault, invalidate, or send."""
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        cls = simple_class(djvm, "Obj", 64)
        obj = djvm.allocate(cls, 0)
        djvm.spawn_threads(2)
        result = djvm.run(
            {
                0: wrap_main([P.barrier(0)]),
                1: wrap_main([P.read(obj.obj_id)] * 50 + [P.barrier(0)]),
            }
        )
        assert result.counters["faults"] == 1
        fetches = djvm.cluster.network.stats.count_by_kind.get(
            MessageKind.OBJECT_FETCH_DATA, 0
        )
        assert fetches == 1


N_THREADS = 4

WORKLOADS = {
    "sor": lambda: SORWorkload(n=128, rounds=4, n_threads=N_THREADS, seed=3),
    "barnes_hut": lambda: BarnesHutWorkload(n_bodies=96, rounds=3, n_threads=N_THREADS, seed=3),
    "water_spatial": lambda: WaterSpatialWorkload(
        n_molecules=64, rounds=3, n_threads=N_THREADS, seed=3
    ),
}


def run_full_suite(name, *, force_fanout, adaptive, timer_ms, backend):
    """One workload under all three profilers; returns everything the
    run and the footprinter left behind, plus the engine for asserts."""
    djvm = DJVM(N_THREADS)
    workload = WORKLOADS[name]()
    workload.build(djvm)
    suite = ProfilerSuite(
        djvm,
        correlation=True,
        footprint=True,
        stack=True,
        window_batches=4,
        footprint_timer_ms=timer_ms,
        sampling_backend=backend,
    )
    if adaptive:
        suite.set_rate_all(1)
        suite.attach_controller(
            AdaptiveRateController(threshold=0.0, ladder=(1, 2, 4, 8, 16, 32))
        )
    else:
        suite.set_rate_all(4)
    if force_fanout:
        djvm.add_hook(NullHook())
    with tracked_per_interval() as tracked:
        result = djvm.run(workload.programs())
    footprinter = suite.footprinter
    left_behind = (
        run_fingerprint(djvm, result, suite),
        footprinter.interval_footprints,
        tracked,
        footprinter.tracked_accesses,
        suite.access_profiler.total_logged,
    )
    return left_behind, djvm.hlrc, suite


@pytest.mark.parametrize("backend", [None, "hash"], ids=["prime_gap", "hash"])
@pytest.mark.parametrize("timer_ms", [None, 0.5], ids=["nonstop", "timer"])
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plan_matches_keyword_fanout_with_n_hooks(name, adaptive, timer_ms, backend):
    """Correlation tracker (first touch) + footprinter (re-arming) +
    stack sampler: the plan — on the vector engine's walk — and the
    forced keyword fan-out on the scalar loop leave the same run behind,
    at fixed rates and while the adaptive controller moves them.

    This is also the proof that gating ``AccessProfiler`` on interval
    first touches, and the footprinter's sampling decision on them, is
    sound.  The fan-out asks both every access, and a later access of an
    object re-asks the sampling question; the answer could only differ
    if the rate changed in between.  It cannot: segments run
    sync-to-sync, every access of an interval falls inside one segment,
    and rates change only at an interval close (OAL delivery closes the
    window the controller observes), when no other thread's open
    interval has an access yet.
    """
    config = dict(adaptive=adaptive, timer_ms=timer_ms, backend=backend)
    plan, hlrc, suite = run_full_suite(name, force_fanout=False, **config)
    fanout, fanout_hlrc, _ = run_full_suite(name, force_fanout=True, **config)
    assert plan == fanout
    assert hlrc.dispatch_plan == (
        ("AccessProfiler", "first_touch"),
        ("StickySetFootprinter", "rearming"),
    )
    assert {mode for _, mode in fanout_hlrc.dispatch_plan} == {"keyword"}
    # The scenario exercises what it claims to.
    assert suite.footprinter.tracked_accesses > 0
    assert suite.access_profiler.total_logged > 0
    if adaptive:
        assert suite.policy.rate_changes > len(list(suite.djvm.registry))
