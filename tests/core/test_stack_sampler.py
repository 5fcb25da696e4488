"""Tests for adaptive stack sampling (Fig. 8)."""

from repro.core.stack_sampler import StackSampler
from repro.runtime.stack import Frame
from repro.runtime.thread import SimThread
from repro.sim.costs import CostModel

MS = 1_000_000


def make_thread():
    return SimThread(thread_id=0, node_id=0)


def sampler(**kw):
    return StackSampler(CostModel.gideon300(), **kw)


class TestTimer:
    def test_first_poll_arms_only(self):
        s = sampler(gap_ms=4)
        t = make_thread()
        t.stack.push(Frame("m", 2, refs={0: 1}))
        s.maybe_fire(t)
        assert s.samples_taken == 0

    def test_fires_after_gap(self):
        s = sampler(gap_ms=4)
        t = make_thread()
        t.stack.push(Frame("m", 2, refs={0: 1}))
        s.maybe_fire(t)      # arm
        t.clock.advance(5 * MS)
        s.maybe_fire(t)
        assert s.samples_taken == 1

    def test_no_catchup_storm(self):
        """One long op spanning many gaps yields one sample."""
        s = sampler(gap_ms=4)
        t = make_thread()
        t.stack.push(Frame("m", 2, refs={0: 1}))
        s.maybe_fire(t)
        t.clock.advance(100 * MS)
        s.maybe_fire(t)
        s.maybe_fire(t)
        assert s.samples_taken == 1


class TestTwoPhaseScan:
    def test_first_sample_is_raw_under_lazy(self):
        s = sampler(lazy=True)
        t = make_thread()
        f = Frame("m", 3, refs={1: 7})
        t.stack.push(f)
        s.sample_stack(t)
        assert f.visited
        sample = s.samples_for(0)[f.frame_uid]
        assert sample.raw
        assert s.frames_extracted == 0

    def test_immediate_mode_extracts_now(self):
        s = sampler(lazy=False)
        t = make_thread()
        f = Frame("m", 3, refs={1: 7})
        t.stack.push(f)
        s.sample_stack(t)
        sample = s.samples_for(0)[f.frame_uid]
        assert not sample.raw
        assert sample.slots == {1: 7}
        assert s.frames_extracted == 1

    def test_second_visit_converts_and_compares(self):
        s = sampler(lazy=True)
        t = make_thread()
        f = Frame("m", 3, refs={1: 7})
        t.stack.push(f)
        s.sample_stack(t)
        s.sample_stack(t)
        sample = s.samples_for(0)[f.frame_uid]
        assert not sample.raw
        assert sample.comparisons == 1
        assert sample.slots == {1: 7}

    def test_scan_stops_at_first_visited_frame(self):
        """Frames *below* the first visited frame are untouched: their
        slots cannot have changed while covered, so only the first
        visited frame is compared (the two-phase optimization)."""
        s = sampler()
        t = make_thread()
        bottom = Frame("bottom", 2, refs={0: 1})
        mid = Frame("mid", 2, refs={0: 2})
        t.stack.push(bottom)
        t.stack.push(mid)
        s.sample_stack(t)  # both raw + visited
        s.sample_stack(t)  # mid (first visited) converts + compares
        bottom_before = s.samples_for(0)[bottom.frame_uid]
        assert bottom_before.raw  # never reached below the first visited
        # Push a temporary; the next sample processes it and mid only.
        top = Frame("top", 2, refs={0: 9})
        t.stack.push(top)
        s.sample_stack(t)  # raw-captures top, compares mid again
        assert s.samples_for(0)[bottom.frame_uid].raw
        assert s.samples_for(0)[mid.frame_uid].comparisons == 2

    def test_probing_removes_changed_slots(self):
        s = sampler()
        t = make_thread()
        f = Frame("m", 4, refs={0: 5, 1: 6})
        t.stack.push(f)
        s.sample_stack(t)
        f.set_slot(1, 99)  # the frame is on top and mutates
        s.sample_stack(t)
        sample = s.samples_for(0)[f.frame_uid]
        assert sample.slots == {0: 5}

    def test_dead_frame_samples_discarded(self):
        s = sampler()
        t = make_thread()
        f = Frame("gone", 2, refs={0: 1})
        t.stack.push(f)
        s.sample_stack(t)
        t.stack.pop()
        t.stack.push(Frame("new", 2))
        s.sample_stack(t)
        assert f.frame_uid not in s.samples_for(0)

    def test_fresh_activation_not_confused_with_old(self):
        """A new activation of the same method at the same depth has its
        own uid and starts raw (the visited flag was cleared in the
        prologue)."""
        s = sampler()
        t = make_thread()
        t.stack.push(Frame("base", 1, refs={0: 3}))
        a = Frame("m", 2, refs={0: 1})
        t.stack.push(a)
        s.sample_stack(t)
        t.stack.pop()
        b = Frame("m", 2, refs={0: 2})
        t.stack.push(b)
        s.sample_stack(t)
        assert s.samples_for(0)[b.frame_uid].raw

    def test_empty_stack_no_sample(self):
        s = sampler()
        t = make_thread()
        s.sample_stack(t)
        assert s.samples_taken == 0


class TestCosts:
    def test_lazy_cheaper_for_dying_frames(self):
        """Temporary frames that never survive to a second visit must be
        cheaper under lazy extraction — the paper's Table V comparison."""

        def churn(lazy):
            s = sampler(lazy=lazy)
            t = make_thread()
            t.stack.push(Frame("base", 2, refs={0: 1}))
            for i in range(50):
                f = Frame(f"temp{i}", 8, refs={0: i})
                t.stack.push(f)
                s.sample_stack(t)
                t.stack.pop()
            return t.cpu.stack_sampling_ns

        assert churn(lazy=True) < churn(lazy=False)

    def test_probing_shrinks_comparison_cost(self):
        """Slots discarded by earlier probes are never compared again."""
        s = sampler()
        t = make_thread()
        f = Frame("m", 10, refs={i: i for i in range(10)})
        t.stack.push(f)
        s.sample_stack(t)
        s.sample_stack(t)  # extract + first compare: 10 slots
        for i in range(9):
            f.set_slot(i, None)
        before = t.cpu.stack_sampling_ns
        s.sample_stack(t)  # compares 10, drops 9
        mid_cost = t.cpu.stack_sampling_ns - before
        before = t.cpu.stack_sampling_ns
        s.sample_stack(t)  # compares only the 1 survivor
        last_cost = t.cpu.stack_sampling_ns - before
        assert last_cost < mid_cost


class TestInvariantRefs:
    def test_survivors_reported_topmost_first(self):
        """Stack growth between samples lets each stable frame become the
        first-visited frame once, converting it; invariants then come out
        topmost-first (the resolution heuristic's order)."""
        s = sampler()
        t = make_thread()
        bottom = Frame("bottom", 2, refs={0: 100})
        t.stack.push(bottom)
        s.sample_stack(t)          # bottom raw
        top = Frame("top", 2, refs={0: 200})
        t.stack.push(top)
        s.sample_stack(t)          # top raw; bottom converts + compares
        s.sample_stack(t)          # top converts + compares
        refs = s.invariant_refs(t, min_comparisons=1)
        assert refs == [200, 100]

    def test_raw_samples_not_reported(self):
        s = sampler()
        t = make_thread()
        t.stack.push(Frame("m", 2, refs={0: 5}))
        s.sample_stack(t)
        assert s.invariant_refs(t) == []

    def test_min_comparisons_threshold(self):
        s = sampler()
        t = make_thread()
        t.stack.push(Frame("m", 2, refs={0: 5}))
        s.sample_stack(t)
        s.sample_stack(t)
        assert s.invariant_refs(t, min_comparisons=1) == [5]
        assert s.invariant_refs(t, min_comparisons=2) == []

    def test_changed_slots_never_invariant(self):
        s = sampler()
        t = make_thread()
        f = Frame("m", 2, refs={0: 5, 1: 6})
        t.stack.push(f)
        s.sample_stack(t)
        f.set_slot(1, 7)
        s.sample_stack(t)
        f.set_slot(1, 8)
        s.sample_stack(t)
        assert s.invariant_refs(t) == [5]

    def test_deduplicated(self):
        s = sampler()
        t = make_thread()
        t.stack.push(Frame("a", 2, refs={0: 5}))
        t.stack.push(Frame("b", 2, refs={0: 5}))
        s.sample_stack(t)
        s.sample_stack(t)
        assert s.invariant_refs(t) == [5]
