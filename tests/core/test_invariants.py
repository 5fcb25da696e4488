"""Tests for the exhaustive invariant miner, including the soundness
property the sampling-based miner must satisfy relative to it."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.invariants import mine_invariants
from repro.core.stack_sampler import StackSampler
from repro.runtime.stack import Frame
from repro.runtime.thread import SimThread
from repro.sim.costs import CostModel

import pytest


def snap(*frames):
    """Build one snapshot from (uid, method, slots) triples, bottom-up."""
    return [(uid, m, dict(slots)) for uid, m, slots in frames]


class TestMineInvariants:
    def test_constant_slot_is_invariant(self):
        snaps = [
            snap((1, "run", {0: 42})),
            snap((1, "run", {0: 42})),
        ]
        out = mine_invariants(snaps)
        assert len(out) == 1
        assert (out[0].frame_uid, out[0].slot, out[0].obj_id) == (1, 0, 42)

    def test_changing_slot_excluded(self):
        snaps = [
            snap((1, "run", {0: 42, 1: 5})),
            snap((1, "run", {0: 42, 1: 6})),
        ]
        out = mine_invariants(snaps)
        assert [(i.slot, i.obj_id) for i in out] == [(0, 42)]

    def test_single_occurrence_excluded(self):
        snaps = [
            snap((1, "run", {0: 42})),
            snap((2, "other", {0: 9})),
        ]
        assert mine_invariants(snaps) == []

    def test_none_slot_excluded(self):
        snaps = [snap((1, "run", {0: None}))] * 3
        assert mine_invariants(snaps) == []

    def test_min_occurrences_enforced(self):
        snaps = [snap((1, "run", {0: 42}))] * 2
        assert mine_invariants(snaps, min_occurrences=3) == []
        with pytest.raises(ValueError):
            mine_invariants(snaps, min_occurrences=1)


class TestSamplerSoundness:
    """The sampling-based miner never invents an invariant the exhaustive
    miner (seeing every snapshot) would reject."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["push", "pop", "set"]),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=1, max_value=6),
            ),
            min_size=4,
            max_size=40,
        )
    )
    def test_no_false_invariants(self, script):
        thread = SimThread(0, 0)
        sampler = StackSampler(CostModel.gideon300())
        snapshots = []

        def record():
            sampler.sample_stack(thread)
            snapshots.append(
                [
                    (f.frame_uid, f.method, {i: v for i, v in enumerate(f.slots)})
                    for f in thread.stack
                ]
            )

        thread.stack.push(Frame("root", 4, refs={0: 99}))
        record()
        for action, slot, value in script:
            if action == "push":
                thread.stack.push(Frame("m", 4, refs={slot: value}))
            elif action == "pop" and len(thread.stack) > 1:
                thread.stack.pop()
            elif action == "set":
                thread.stack.top.set_slot(slot, value)
            record()

        exhaustive_ok = {
            (i.frame_uid, i.slot, i.obj_id)
            for i in mine_invariants(snapshots, min_occurrences=2)
        }
        samples = sampler.samples_for(0)
        live = {f.frame_uid: f for f in thread.stack}
        for uid, sample in samples.items():
            if sample.raw or sample.comparisons < 1 or uid not in live:
                continue
            for slot, ref in sample.slots.items():
                if ref is None:
                    continue
                assert (uid, slot, ref) in exhaustive_ok, (
                    f"sampler reported false invariant frame={uid} slot={slot} "
                    f"ref={ref}"
                )
