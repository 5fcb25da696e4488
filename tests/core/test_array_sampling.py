"""Tests for array sampling and amortization (Section II.B.3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.array_sampling import (
    amortized_sample_bytes,
    sampled_element_count,
)
from repro.heap.heap import GlobalObjectSpace


class TestSampledElementCount:
    def test_full_sampling(self):
        assert sampled_element_count(0, 10, 1) == 10

    def test_exact_counting(self):
        # seqs 0..9 with gap 3: 0, 3, 6, 9 -> 4 sampled.
        assert sampled_element_count(0, 10, 3) == 4
        # seqs 5..9 with gap 3: 6, 9 -> 2 (the paper's Fig. 3b middle case).
        assert sampled_element_count(5, 5, 3) == 2
        # seqs 10..12 with gap 7: none.
        assert sampled_element_count(10, 3, 7) == 0

    def test_zero_length(self):
        assert sampled_element_count(0, 0, 3) == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sampled_element_count(0, 5, 0)
        with pytest.raises(ValueError):
            sampled_element_count(0, -1, 3)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=2_000),
        st.integers(min_value=1, max_value=600),
    )
    def test_matches_bruteforce(self, seq, length, gap):
        expected = sum(1 for k in range(seq, seq + length) if k % gap == 0)
        assert sampled_element_count(seq, length, gap) == expected

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=2_000),
        st.integers(min_value=1, max_value=600),
    )
    def test_count_bounds(self, seq, length, gap):
        """The count never deviates from length/gap by more than one —
        the statistical uniformity the scheme is designed for."""
        count = sampled_element_count(seq, length, gap)
        assert abs(count - length / gap) <= 1

    @given(
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=1, max_value=1_000),
    )
    def test_arrays_at_least_gap_long_always_sampled(self, seq, gap):
        """A large array can never dodge sampling entirely (the paper's
        motivation for per-element numbering)."""
        assert sampled_element_count(seq, gap, gap) > 0


class TestAmortizedBytes:
    def arr(self, seq=0, length=10, elem=8):
        gos = GlobalObjectSpace()
        cls = gos.registry.define("double[]", 16, is_array=True, element_size=elem)
        obj = gos.allocate(cls, home_node=0, length=length)
        gos.seq[obj.obj_id] = seq
        return obj

    def test_full_sampling_equals_payload(self):
        obj = self.arr(length=10, elem=8)
        assert amortized_sample_bytes(obj, 1) == 80

    def test_amortization_shrinks_with_gap(self):
        obj = self.arr(length=100)
        assert amortized_sample_bytes(obj, 10) < amortized_sample_bytes(obj, 2)

    def test_scalar_rejected(self):
        gos = GlobalObjectSpace()
        obj = gos.allocate(gos.registry.define("Obj", 64), home_node=0)
        with pytest.raises(TypeError):
            amortized_sample_bytes(obj, 2)

    def test_unbiasedness_via_scaling(self):
        """Summed over consecutively numbered arrays, amortized bytes
        times the gap estimates the true payload within one element per
        array — the anti-skew property of Section II.B.3."""
        gap = 7
        total_true = 0
        total_est = 0
        seq = 0
        for length in (3, 10, 64, 200, 1):
            obj = self.arr(seq=seq, length=length)
            seq += length
            total_true += length * 8
            total_est += amortized_sample_bytes(obj, gap) * gap
        assert abs(total_est - total_true) <= gap * 8 * 5
