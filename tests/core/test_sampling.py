"""Tests for the class-level adaptive sampling policy (Section II.B)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.sampling import SamplingPolicy
from repro.heap.heap import GlobalObjectSpace
from repro.util.primes import is_prime


def gos_with_classes():
    gos = GlobalObjectSpace()
    gos.registry.define("Body", 96)
    gos.registry.define("double[]", is_array=True, element_size=8)
    gos.registry.define("Row", 16384)  # bigger than a page
    return gos


class TestGapConfiguration:
    def test_default_is_full_sampling(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        assert policy.gap(gos.registry.get("Body")) == 1

    def test_rate_formula(self):
        """gap = page_size / (unit_size * rate), then nearest prime."""
        gos = gos_with_classes()
        policy = SamplingPolicy(page_size=4096)
        body = gos.registry.get("Body")
        policy.set_rate(body, 1)  # 4096 / 96 = 42 -> prime 41 or 43
        assert is_prime(policy.gap(body))
        assert abs(policy.gap(body) - 42) <= 2

    def test_array_rate_uses_element_size(self):
        gos = gos_with_classes()
        policy = SamplingPolicy(page_size=4096)
        arr = gos.registry.get("double[]")
        policy.set_rate(arr, 4)  # 4096/(8*4) = 128 -> prime 127
        assert policy.gap(arr) == 127

    def test_page_sized_class_always_full(self):
        """Classes at least a page large sample fully at any rate — the
        paper's SOR observation."""
        gos = gos_with_classes()
        policy = SamplingPolicy(page_size=4096)
        row = gos.registry.get("Row")
        for rate in (1, 4, 16, 512):
            policy.set_rate(row, rate)
            assert policy.gap(row) == 1

    def test_full_sentinel(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        body = gos.registry.get("Body")
        policy.set_rate(body, 16)
        policy.set_rate(body, "full")
        assert policy.gap(body) == 1

    def test_gap_always_prime_or_one(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        body = gos.registry.get("Body")
        for rate in (0.25, 0.5, 1, 2, 4, 8, 64):
            policy.set_rate(body, rate)
            g = policy.gap(body)
            assert g == 1 or is_prime(g)

    def test_ablation_mode_skips_primes(self):
        gos = gos_with_classes()
        policy = SamplingPolicy(use_prime_gaps=False)
        body = gos.registry.get("Body")
        policy.set_nominal_gap(body, 32)
        assert policy.gap(body) == 32

    def test_rate_change_counted_and_epoch_bumped(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        body = gos.registry.get("Body")
        assert policy.set_rate(body, 1)
        st = policy.state(body)
        e0 = st.epoch
        assert not policy.set_rate(body, 1)  # no change
        assert st.epoch == e0
        assert policy.set_rate(body, 2)
        assert st.epoch == e0 + 1
        assert policy.rate_changes == 2

    def test_min_gap_enforced(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        body = gos.registry.get("Body")
        policy.set_min_gap(body, 11)
        policy.set_rate(body, "full")
        assert policy.gap(body) >= 11

    def test_set_rate_all_returns_changed(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        changed = policy.set_rate_all(list(gos.registry), 1)
        # Row stays at gap 1 (full) so only Body and double[] change.
        assert {c.name for c in changed} == {"Body", "double[]"}


class TestSamplingDecisions:
    def test_scalar_divisibility(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        body_cls = gos.registry.get("Body")
        objs = [gos.allocate(body_cls, 0) for _ in range(20)]
        policy.set_nominal_gap(body_cls, 5)
        gap = policy.gap(body_cls)  # 5 is prime
        assert gap == 5
        sampled = [o for o in objs if policy.is_sampled(o)]
        assert [o.seq for o in sampled] == [0, 5, 10, 15]

    def test_array_sampled_iff_element_hit(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        arr_cls = gos.registry.get("double[]")
        a = gos.allocate(arr_cls, 0, length=3)   # seqs 0-2
        b = gos.allocate(arr_cls, 0, length=3)   # seqs 3-5
        c = gos.allocate(arr_cls, 0, length=2)   # seqs 6-7
        policy.set_nominal_gap(arr_cls, 7)
        assert policy.is_sampled(a)      # element 0
        assert not policy.is_sampled(b)  # 3,4,5 not divisible by 7
        assert policy.is_sampled(c)      # element 7

    def test_logged_bytes_scalar_is_instance_size(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        obj = gos.allocate("Body", 0)
        assert policy.logged_bytes(obj) == 96

    def test_scaled_bytes_is_horvitz_thompson(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        body_cls = gos.registry.get("Body")
        obj = gos.allocate(body_cls, 0)
        policy.set_nominal_gap(body_cls, 13)
        assert policy.scaled_bytes(obj) == 96 * 13

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=200))
    def test_population_estimate_unbiased_within_one_gap(self, nominal, n_objects):
        """Summing scaled bytes over sampled scalars estimates the class's
        total bytes to within one gap's worth of objects."""
        gos = GlobalObjectSpace()
        cls = gos.registry.define("C", 50)
        objs = [gos.allocate(cls, 0) for _ in range(n_objects)]
        policy = SamplingPolicy()
        policy.set_nominal_gap(cls, nominal)
        gap = policy.gap(cls)
        estimate = sum(policy.scaled_bytes(o) for o in objs if policy.is_sampled(o))
        true = n_objects * 50
        assert abs(estimate - true) <= gap * 50

    def test_effective_rate(self):
        gos = gos_with_classes()
        policy = SamplingPolicy(page_size=4096)
        body = gos.registry.get("Body")
        bodies = [gos.allocate(body, 0) for _ in range(4096)]
        policy.set_rate(body, 4)
        # Should realize roughly 4 samples per page of Body instances.
        pages = len(bodies) * body.instance_size / 4096
        sampled = sum(policy.is_sampled(o) for o in bodies)
        assert sampled / pages == pytest.approx(4, rel=0.35)


class TestDecisionCacheStaleness:
    """A gap change is seen by every decision path: ``decision``,
    ``decide_batch`` and the first-touch answers the policy keeps for
    one rate generation (its one cache of decisions)."""

    def test_gap_change_bumps_epoch_and_invalidates_cache(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        body_cls = gos.registry.get("Body")
        objs = [gos.allocate(body_cls, 0) for _ in range(20)]
        ids = [o.obj_id for o in objs]

        def first_touch_view(decisions):
            return [d[0] for d in decisions], [d[2] for d in decisions]

        policy.set_nominal_gap(body_cls, 5)
        before = [policy.decision(o) for o in objs]
        assert policy.decide_batch(objs) == before
        assert policy.first_touches(ids, gos) == first_touch_view(before)

        st_ = policy.state(body_cls)
        epoch_before = st_.epoch
        assert policy.set_nominal_gap(body_cls, 13)
        assert st_.epoch == epoch_before + 1
        fresh = SamplingPolicy()
        fresh.set_nominal_gap(body_cls, 13)
        after = [fresh.decision(o) for o in objs]
        assert after != before
        assert [policy.decision(o) for o in objs] == after
        assert policy.decide_batch(objs) == after
        # The same ids list again: the last batch's answer is not served
        # across the rate change.
        assert policy.first_touches(ids, gos) == first_touch_view(after)

    def test_unchanged_gap_keeps_cache_warm(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        body_cls = gos.registry.get("Body")
        obj = gos.allocate(body_cls, 0)
        policy.set_nominal_gap(body_cls, 13)
        answer = policy.first_touches([obj.obj_id], gos)
        assert sum(policy.backend.totals()) == 1
        st_ = policy.state(body_cls)
        epoch, changes = st_.epoch, policy.rate_changes
        # Re-realizing the same real gap is not a change: no epoch bump,
        # no new rate generation, and the first-touch answer stays valid
        # (read back, not decided and counted again).
        assert not policy.set_nominal_gap(body_cls, 13)
        assert (st_.epoch, policy.rate_changes) == (epoch, changes)
        assert policy.first_touches([obj.obj_id], gos) == answer
        assert sum(policy.backend.totals()) == 1

    def test_gap_table_tracks_changes(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        body_cls = gos.registry.get("Body")
        policy.set_nominal_gap(body_cls, 5)
        assert policy.gap_table[body_cls.class_id] == policy.gap(body_cls)
        policy.set_nominal_gap(body_cls, 29)
        assert policy.gap_table[body_cls.class_id] == policy.gap(body_cls) == 29

    def test_array_amortization_recomputed_after_gap_change(self):
        """The (sampled, logged, scaled) of an array must follow
        sampled_element_count/amortized_sample_bytes across gap changes."""
        from repro.core.array_sampling import (
            amortized_sample_bytes,
            sampled_element_count,
        )

        gos = gos_with_classes()
        policy = SamplingPolicy()
        arr_cls = gos.registry.get("double[]")
        arrs = [gos.allocate(arr_cls, 0, length=50) for _ in range(8)]
        for gap_nominal in (7, 23):
            policy.set_nominal_gap(arr_cls, gap_nominal)
            gap = policy.gap(arr_cls)
            for a in arrs:
                sampled, logged, scaled = policy.decision(a)
                assert sampled == (sampled_element_count(a.seq, a.length, gap) > 0)
                assert logged == amortized_sample_bytes(a, gap)
                assert scaled == logged * gap
        # And the second pass was served against the *new* gap: at least
        # one array's decision tuple changed between the two gaps.
        policy2 = SamplingPolicy()
        policy2.set_nominal_gap(arr_cls, 7)
        old = [policy2.decision(a) for a in arrs]
        assert [policy.decision(a) for a in arrs] != old


class TestBatchDecisions:
    """decide_batch mirrors decision() exactly."""

    def test_batch_matches_scalar_in_order(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        body = gos.registry.get("Body")
        arr = gos.registry.get("double[]")
        policy.set_nominal_gap(body, 5)
        policy.set_nominal_gap(arr, 7)
        objs = [gos.allocate(body, 0) for _ in range(30)]
        objs += [gos.allocate(arr, 0, length=40) for _ in range(10)]
        objs += objs[:7]  # repeats are decided again, identically
        assert policy.decide_batch(objs) == [policy.decision(o) for o in objs]

    def test_batch_respects_epoch_invalidation(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        body = gos.registry.get("Body")
        objs = [gos.allocate(body, 0) for _ in range(16)]
        policy.set_nominal_gap(body, 5)
        before = policy.decide_batch(objs)
        policy.set_nominal_gap(body, 13)
        after = policy.decide_batch(objs)
        assert after != before
        assert after == [policy.decision(o) for o in objs]

    def test_batch_interleaved_classes(self):
        """Class changes mid-batch reload the right per-class state."""
        gos = gos_with_classes()
        policy = SamplingPolicy()
        body = gos.registry.get("Body")
        arr = gos.registry.get("double[]")
        policy.set_nominal_gap(body, 5)
        policy.set_nominal_gap(arr, 7)
        mixed = []
        for i in range(12):
            mixed.append(gos.allocate(body, 0))
            mixed.append(gos.allocate(arr, 0, length=25))
        assert policy.decide_batch(mixed) == [policy.decision(o) for o in mixed]

    def test_batch_on_unseen_class_creates_state(self):
        gos = gos_with_classes()
        policy = SamplingPolicy()
        body = gos.registry.get("Body")
        objs = [gos.allocate(body, 0) for _ in range(4)]
        out = policy.decide_batch(objs)
        assert all(sampled for sampled, _, _ in out)  # default gap 1
