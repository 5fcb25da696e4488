"""Tests for sticky-set footprinting (Section III.A step 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.footprint import RECENT_TRACKED, StickySetFootprinter
from repro.core.profiler import ProfilerSuite
from repro.core.sampling import SamplingPolicy
from repro.dsm.intervals import NO_BOUND, IntervalRecord
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.runtime.thread import SimThread
from repro.sim.costs import CostModel

from tests.conftest import simple_class, tracked_per_interval, wrap_main

MS = 1_000_000


def setup(n_objects=8, obj_size=128, **suite_kw):
    djvm = DJVM(n_nodes=1, costs=CostModel.fast_test())
    cls = simple_class(djvm, "Obj", obj_size)
    objs = [djvm.allocate(cls, 0) for _ in range(n_objects)]
    djvm.spawn_thread(0)
    suite = ProfilerSuite(djvm, correlation=False, footprint=True, **suite_kw)
    suite.set_full_sampling()
    return djvm, objs, suite


def spread_accesses(obj_id, times, spacing_ms=2):
    """Ops accessing an object repeatedly with compute gaps between (so
    accesses land in distinct footprint phases)."""
    ops = []
    for _ in range(times):
        ops.append(P.read(obj_id))
        ops.append(P.compute(spacing_ms * MS * 100))  # fast_test scale 0.01
    return ops


class TestStickyCriterion:
    def test_repeated_object_is_sticky(self):
        djvm, objs, suite = setup()
        djvm.run({0: wrap_main(spread_accesses(objs[0].obj_id, 3) + [P.barrier(0)])})
        # The busy interval's footprint (recent estimator) is the object's
        # size; the lifetime average is diluted by the empty final interval.
        assert suite.footprinter.recent_footprint(0) == {"Obj": 128}
        assert suite.footprinter.average_footprint(0)["Obj"] == pytest.approx(64.0)

    def test_single_access_not_sticky(self):
        djvm, objs, suite = setup()
        djvm.run({0: wrap_main([P.read(objs[0].obj_id), P.barrier(0)])})
        assert suite.footprinter.average_footprint(0) == {}

    def test_burst_in_one_phase_not_sticky(self):
        """Many accesses at the same instant are one phase-touch — the
        frequency signal has phase granularity."""
        djvm, objs, suite = setup()
        djvm.run({0: wrap_main([P.read(objs[0].obj_id, repeat=50), P.barrier(0)])})
        assert suite.footprinter.average_footprint(0) == {}

    def test_per_class_composition(self):
        djvm, objs, suite = setup()
        other_cls = djvm.define_class("Other", 256)
        other = djvm.allocate(other_cls, 0)
        ops = spread_accesses(objs[0].obj_id, 3) + spread_accesses(other.obj_id, 3)
        djvm.run({0: wrap_main(ops + [P.barrier(0)])})
        assert suite.footprinter.recent_footprint(0) == {"Obj": 128, "Other": 256}

    def test_footprint_resets_per_interval(self):
        djvm, objs, suite = setup()
        ops = (
            spread_accesses(objs[0].obj_id, 3)
            + [P.barrier(0)]
            + [P.read(objs[0].obj_id), P.barrier(1)]
        )
        djvm.run({0: wrap_main(ops)})
        fps = suite.footprinter.interval_footprints[0]
        # Every closed interval is recorded; only the first qualifies the
        # object as sticky (non-empty footprint).
        assert len([fp for fp in fps if fp]) == 1


class TestSampledEstimation:
    def test_gap_scaling_estimates_class_bytes(self):
        djvm, objs, suite = setup(n_objects=30)
        cls = djvm.registry.get("Obj")
        suite.policy.set_nominal_gap(cls, 3)
        ops = []
        for o in objs:
            ops.extend(spread_accesses(o.obj_id, 3, spacing_ms=1))
        djvm.run({0: wrap_main(ops + [P.barrier(0)])})
        fp = suite.footprinter.recent_footprint(0)
        true_bytes = 30 * 128
        # 10 sampled objects x 128 x gap 3 = true bytes exactly here.
        assert fp["Obj"] == pytest.approx(true_bytes, rel=0.2)

    def test_unsampled_objects_invisible(self):
        djvm, objs, suite = setup()
        cls = djvm.registry.get("Obj")
        suite.policy.set_nominal_gap(cls, 100)  # only seq 0 sampled
        ops = spread_accesses(objs[1].obj_id, 3)
        djvm.run({0: wrap_main(ops + [P.barrier(0)])})
        assert suite.footprinter.average_footprint(0) == {}


class TestTimerThrottling:
    def test_timer_mode_cheaper_than_nonstop(self):
        def run(timer_ms):
            djvm, objs, suite = setup(footprint_timer_ms=timer_ms)
            ops = []
            for o in objs:
                ops.extend(spread_accesses(o.obj_id, 4, spacing_ms=3))
            djvm.run({0: wrap_main(ops + [P.barrier(0)])})
            return djvm.threads[0].cpu.footprinting_ns

        assert run(timer_ms=10) < run(timer_ms=None)

    def test_off_phase_accesses_unseen(self):
        djvm = DJVM(n_nodes=1, costs=CostModel.fast_test())
        cls = simple_class(djvm, "Obj", 128)
        obj = djvm.allocate(cls, 0)
        djvm.spawn_thread(0)
        fp = StickySetFootprinter(
            __import__("repro.core.sampling", fromlist=["SamplingPolicy"]).SamplingPolicy(),
            djvm.costs,
            timer_period_ms=10,
            duty=0.5,
        )
        fp.attach_gos(djvm.gos)
        djvm.add_hook(fp)
        # All accesses land at ~7ms into each period (off phase).
        ops = []
        for _ in range(3):
            ops.append(P.compute(7 * MS * 100))
            ops.append(P.read(obj.obj_id))
            ops.append(P.compute(3 * MS * 100))
        djvm.run({0: wrap_main(ops + [P.barrier(0)])})
        assert fp.tracked_accesses == 0

    def test_invalid_config_rejected(self):
        from repro.core.sampling import SamplingPolicy

        with pytest.raises(ValueError):
            StickySetFootprinter(SamplingPolicy(), CostModel(), timer_period_ms=0)
        with pytest.raises(ValueError):
            StickySetFootprinter(SamplingPolicy(), CostModel(), duty=1.5)
        with pytest.raises(ValueError):
            StickySetFootprinter(SamplingPolicy(), CostModel(), min_accesses=0)


class TestRearming:
    """The plan's footprinter decides at an interval's first touch and
    re-arms what it sampled; the keyword fan-out decides at every
    access.  Rates change only at interval closes, so both agree."""

    class GapAfterFirstInterval:
        """A first-touch hook that moves the class's gap when the first
        interval closes — where the adaptive controller moves rates."""

        def __init__(self, policy, jclass):
            self.policy, self.jclass = policy, jclass

        def on_interval_open(self, thread):
            pass

        def on_access(self, thread, obj, **kw):
            pass

        def fast_on_access(self, thread, ids, faulted):
            return None

        def on_interval_close(self, thread, interval, sync_dst):
            if interval.interval_id == 1:
                self.policy.set_nominal_gap(self.jclass, 100)

    class KeywordOnly:
        def on_interval_open(self, thread):
            pass

        def on_access(self, thread, obj, **kw):
            pass

        def on_interval_close(self, thread, interval, sync_dst):
            pass

    @pytest.mark.parametrize("route", ["vector", "scalar", "keyword"])
    def test_rearmed_ids_do_not_outlive_their_interval(self, route):
        """Object seq 1 is sampled in the first interval (full sampling)
        and not in the second (gap 100): only the first interval's three
        phases are tracked."""
        djvm = DJVM(n_nodes=1, costs=CostModel.fast_test(), replay=route.replace("keyword", "vector"))
        cls = simple_class(djvm, "Obj", 128)
        objs = [djvm.allocate(cls, 0) for _ in range(4)]
        djvm.spawn_thread(0)
        suite = ProfilerSuite(djvm, correlation=False, footprint=True)
        suite.set_full_sampling()
        djvm.add_hook(self.GapAfterFirstInterval(suite.policy, cls))
        if route == "keyword":
            djvm.add_hook(self.KeywordOnly())
        twice = spread_accesses(objs[1].obj_id, 3)
        djvm.run({0: wrap_main(twice + [P.barrier(0)] + twice + [P.barrier(1)])})
        assert suite.policy.is_sampled(objs[0]) and not suite.policy.is_sampled(objs[1])
        assert suite.footprinter.tracked_accesses == 3
        assert [bool(fp) for fp in suite.footprinter.interval_footprints[0]] == [True, False, False]

    @pytest.mark.parametrize("route", ["vector", "scalar", "keyword"])
    def test_a_rate_moved_at_the_close_does_not_reweigh_the_interval(self, route):
        """A hook ahead of the footprinter moves the gap to 100 (101,
        prime) at the first interval's close, as the adaptive controller
        does on the profiler's delivery.  Object seq 0 is sampled at
        every gap; its footprint for that interval is still the 128
        bytes it was sampled under at gap 1, not 128 x 101."""
        djvm = DJVM(n_nodes=1, costs=CostModel.fast_test(), replay=route.replace("keyword", "vector"))
        cls = simple_class(djvm, "Obj", 128)
        objs = [djvm.allocate(cls, 0) for _ in range(4)]
        djvm.spawn_thread(0)
        ahead = self.GapAfterFirstInterval(None, cls)
        djvm.add_hook(ahead)
        suite = ProfilerSuite(djvm, correlation=False, footprint=True)
        suite.set_full_sampling()
        ahead.policy = policy = suite.policy
        if route == "keyword":
            djvm.add_hook(self.KeywordOnly())
        twice = spread_accesses(objs[0].obj_id, 3)
        djvm.run({0: wrap_main(twice + [P.barrier(0)] + twice + [P.barrier(1)])})
        assert policy.gap(cls) == 101
        first, second = suite.footprinter.interval_footprints[0][:2]
        assert (first, second) == ({"Obj": 128}, {"Obj": 128 * 101})

    @pytest.mark.parametrize("route", ["vector", "scalar", "keyword"])
    def test_first_touch_in_an_off_phase_still_arms(self, route):
        """Timer-phased tracking: the object's first touch falls in a
        tracking-off phase and is invisible, but the first touch decides
        for the whole interval — its later on-phase accesses are
        tracked."""
        djvm = DJVM(n_nodes=1, costs=CostModel.fast_test(), replay=route.replace("keyword", "vector"))
        cls = simple_class(djvm, "Obj", 128)
        obj = djvm.allocate(cls, 0)
        djvm.spawn_thread(0)
        suite = ProfilerSuite(djvm, correlation=False, footprint=True, footprint_timer_ms=10)
        suite.set_full_sampling()
        if route == "keyword":
            djvm.add_hook(self.KeywordOnly())
        # Off phase at ~7 ms, then on phases at ~12 ms and ~22 ms.
        ops = [P.compute(7 * MS * 100), P.read(obj.obj_id)]
        ops += [P.compute(5 * MS * 100), P.read(obj.obj_id), P.compute(10 * MS * 100), P.read(obj.obj_id)]
        djvm.run({0: wrap_main(ops + [P.barrier(0)])})
        assert suite.footprinter.tracked_accesses == 2
        if route == "vector":
            assert djvm.replay_routing["stops"] == 3


class TestLiveQueries:
    def test_live_footprint_mid_interval(self):
        djvm, objs, suite = setup()
        seen = {}

        class Probe:
            def next_fire_ns(self, thread):
                return 0  # every op boundary

            def maybe_fire(self, thread):
                if thread.pc == 8:  # after several spread accesses
                    seen["fp"] = suite.footprinter.live_footprint(thread)
                    seen["cands"] = suite.footprinter.live_sticky_candidates(thread)

        djvm.add_timer(Probe())
        djvm.run({0: wrap_main(spread_accesses(objs[0].obj_id, 4) + [P.barrier(0)])})
        assert seen["fp"].get("Obj", 0) == 128
        assert seen["cands"] == [objs[0].obj_id]

    def test_average_over_intervals(self):
        djvm, objs, suite = setup()
        ops = (
            spread_accesses(objs[0].obj_id, 3)
            + [P.barrier(0)]
            + spread_accesses(objs[0].obj_id, 3)
            + spread_accesses(objs[1].obj_id, 3)
            + [P.barrier(1)]
        )
        djvm.run({0: wrap_main(ops)})
        fp = suite.footprinter.average_footprint(0)
        # Interval 1: 128 bytes; interval 2: 256; final interval empty ->
        # average over all three is 128.
        assert fp["Obj"] == pytest.approx(128.0)
        # The recent estimator takes the element-wise max of busy intervals.
        assert suite.footprinter.recent_footprint(0)["Obj"] == 256

    def test_only_the_last_non_empty_tracked_sets_are_kept(self):
        djvm, objs, suite = setup()
        ops = []
        for k, obj in enumerate(objs[:5]):
            # A busy interval tracking one object, then an empty one.
            ops += spread_accesses(obj.obj_id, 2) + [P.barrier(2 * k), P.barrier(2 * k + 1)]
        djvm.run({0: wrap_main(ops)})
        fp = suite.footprinter
        ids = [obj.obj_id for obj in objs[:5]]
        assert RECENT_TRACKED < len(ids)
        assert list(fp.recent_tracked[0]) == [{i} for i in ids[-RECENT_TRACKED:]]
        assert fp.tracked_ever[0] == set(ids)
        assert fp.recent_tracked_ids(djvm.threads[0]) == set(ids[-RECENT_TRACKED:])


# ---------------------------------------------------------------------------
# the (count, last_phase) bookkeeping against a set-of-phases reference
# ---------------------------------------------------------------------------

N_REF_OBJECTS = 6
REF_GAP = 3  # objects with seq % 3 == 0 are sampled, the rest are not


def reference_phases(accesses, start_ns, period_ns, duty):
    """{obj_id: set of tracking phases it trapped in}, from (clock at
    the access, obj_id, sampled?) triples — the set-of-phases model the
    footprinter's ``(count, last_phase)`` pair must agree with."""
    phases: dict[int, set[int]] = {}
    for now, obj_id, sampled in accesses:
        if period_ns is None:
            phase = now // MS
        else:
            if ((now - start_ns) % period_ns) / period_ns >= duty:
                continue
            phase = (now - start_ns) // period_ns
        if sampled:
            phases.setdefault(obj_id, set()).add(phase)
    return phases


@settings(max_examples=150, deadline=None)
@given(
    intervals=st.lists(
        st.lists(
            st.tuples(st.integers(0, 3 * MS), st.integers(0, N_REF_OBJECTS - 1)),
            max_size=40,
        ),
        min_size=1,
        max_size=3,
    ),
    period_ms=st.sampled_from([None, 1.0, 2.5]),
    duty=st.sampled_from([0.3, 0.5, 1.0]),
    min_accesses=st.integers(1, 4),
    cut=st.floats(0, 1.2),
)
def test_phase_bookkeeping_matches_set_of_phases_reference(
    intervals, period_ms, duty, min_accesses, cut
):
    """Random (time step, object) sequences, a third of the objects
    sampled: trap count and cost, tracked ids, sticky candidates (in
    recording order) and the per-class footprint all equal what a plain
    set of phases per object gives — for every ``min_accesses``,
    including > 2, which the old ``or len(phases) >= 2`` made inert.
    Three routes in lockstep: the keyword ``on_access`` (decide and track
    at every access), the plan's re-arming (decide at the interval's
    first touch, in whatever phase, then track each re-armed access, one
    by one), and the same in bulk, as the one pass hands them over: the
    interval's stops in two calls, the first bounded at ``cut`` of the
    interval's span, the rest resumed after it with the charges the
    first made."""
    djvm = DJVM(n_nodes=1, costs=CostModel.fast_test())
    cls = simple_class(djvm, "Obj", 128)
    objs = [djvm.allocate(cls, 0) for _ in range(N_REF_OBJECTS)]
    policy = SamplingPolicy()
    policy.set_nominal_gap(cls, REF_GAP)
    routes = []
    for _ in ("keyword", "plan", "bulk"):
        fp = StickySetFootprinter(
            policy, djvm.costs, timer_period_ms=period_ms, duty=duty, min_accesses=min_accesses
        )
        fp.attach_gos(djvm.gos)
        routes.append((fp, SimThread(thread_id=0, node_id=0)))
    trap_ns = djvm.costs.gos_trap_ns + djvm.costs.footprint_track_ns
    period_ns = None if period_ms is None else int(period_ms * MS)
    expected_traps = 0
    for n, steps in enumerate(intervals, 1):
        for fp, thread in routes:
            thread.current_interval = IntervalRecord(0, n)
            fp.on_interval_open(thread)
        start_ns = routes[0][1].clock.now_ns
        seen = []
        stops: list[tuple[int, int]] = []  # the bulk route's (object, clock less charges)
        for dt, k in steps:
            obj = objs[k]
            for fp, thread in routes:
                thread.clock.advance(dt)
            (keyword, kthread), (plan, pthread), (bulk, bthread) = routes
            seen.append((kthread.clock.now_ns, obj.obj_id, policy.is_sampled(obj)))
            keyword.on_access(
                kthread, obj, is_write=False, n_elems=1, elem_off=0, repeat=1, real_fault=False
            )
            for fp, thread in ((plan, pthread), (bulk, bthread)):
                interval = thread.current_interval
                if obj.obj_id not in interval.touched:
                    interval.touched.add(obj.obj_id)
                    fp.fast_on_access(thread, [obj.obj_id], ())
            if obj.obj_id in pthread.current_interval.rearmed:
                clock = pthread.clock.now_ns
                plan.on_rearmed_access(pthread, (obj.obj_id,), (clock,), NO_BOUND)
                stops.append((obj.obj_id, bthread.clock.now_ns))
        if stops:
            ids, clocks = map(list, zip(*stops))
            bound = start_ns + int(cut * (clocks[-1] - start_ns))
            done, charged = bulk.on_rearmed_access(bthread, ids, clocks, bound)
            assert done == len(ids) or clocks[done] + charged >= bound
            rest = [c + charged for c in clocks[done:]]
            assert bulk.on_rearmed_access(bthread, ids[done:], rest, NO_BOUND)[0] == len(rest)
        phases = reference_phases(seen, start_ns, period_ns, duty)
        sticky = [oid for oid, ps in phases.items() if len(ps) >= min_accesses]
        expected_traps += sum(len(ps) for ps in phases.values())
        for fp, thread in routes:
            assert fp.live_sticky_candidates(thread) == sticky
            with tracked_per_interval() as tracked:
                fp.on_interval_close(thread, thread.current_interval, None)
            assert tracked[0] == [set(phases)]
            # 128-byte objects at gap 3: each sticky sample stands for 3.
            assert fp.interval_footprints[0][-1] == (
                {"Obj": 128 * REF_GAP * len(sticky)} if sticky else {}
            )
    for fp, thread in routes:
        assert fp.tracked_accesses == expected_traps
        assert thread.cpu.footprinting_ns == expected_traps * trap_ns
