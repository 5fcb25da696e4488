"""Tests for thread correlation map construction."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.oal import OALBatch
from repro.core.tcm import (
    accrual_pair_count,
    build_tcm,
    normalize_tcm,
    tcm_from_batches,
    window_accrual,
)


class TestBuildTcm:
    def test_shared_object_accrues_pairwise(self):
        entries = [(0, 100, 64.0), (1, 100, 64.0)]
        tcm = build_tcm(entries, 3)
        assert tcm[0, 1] == 64.0
        assert tcm[1, 0] == 64.0
        assert tcm[0, 2] == 0.0

    def test_diagonal_zeroed_by_default(self):
        tcm = build_tcm([(0, 1, 10.0), (1, 1, 10.0)], 2)
        assert tcm[0, 0] == 0.0

    def test_diagonal_kept_on_request(self):
        tcm = build_tcm([(0, 1, 10.0)], 2, include_diagonal=True)
        assert tcm[0, 0] == 10.0

    def test_private_objects_contribute_nothing_offdiag(self):
        tcm = build_tcm([(0, 1, 10.0), (1, 2, 10.0)], 2)
        assert tcm[0, 1] == 0.0

    def test_duplicate_entries_do_not_double_count(self):
        tcm = build_tcm([(0, 1, 10.0), (0, 1, 10.0), (1, 1, 10.0)], 2)
        assert tcm[0, 1] == 10.0

    def test_three_way_sharing(self):
        entries = [(t, 5, 8.0) for t in range(3)]
        tcm = build_tcm(entries, 3)
        for i in range(3):
            for j in range(3):
                assert tcm[i, j] == (8.0 if i != j else 0.0)

    def test_bad_thread_id_rejected(self):
        with pytest.raises(ValueError):
            build_tcm([(5, 1, 1.0)], 2)
        with pytest.raises(ValueError):
            build_tcm([], 0)

    def test_negative_object_id_rejected(self):
        with pytest.raises(ValueError, match="object id -3 is negative"):
            build_tcm([(0, 1, 1.0), (1, -3, 1.0)], 2)

    def test_empty(self):
        tcm = build_tcm([], 4)
        assert tcm.shape == (4, 4)
        assert (tcm == 0).all()

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=20),
                st.floats(min_value=1, max_value=1e6),
            ),
            max_size=60,
        )
    )
    def test_symmetric_nonnegative_zero_diag(self, entries):
        tcm = build_tcm(entries, 6)
        assert (tcm >= 0).all()
        assert np.allclose(tcm, tcm.T)
        assert np.diagonal(tcm).sum() == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=10),
            ),
            max_size=40,
        )
    )
    def test_matches_naive_accrual(self, pairs):
        """The vectorized builder equals the paper's O(MN^2) triple loop."""
        size = 32.0
        entries = [(t, o, size) for t, o in pairs]
        tcm = build_tcm(entries, 4)
        naive = np.zeros((4, 4))
        threads_per_obj: dict[int, set[int]] = {}
        for t, o in pairs:
            threads_per_obj.setdefault(o, set()).add(t)
        for o, ts in threads_per_obj.items():
            for i in ts:
                for j in ts:
                    if i != j:
                        naive[i, j] += size
        assert np.allclose(tcm, naive)


class TestBatches:
    def batch(self, tid, entries):
        b = OALBatch(thread_id=tid, interval_id=1)
        for oid, size in entries:
            b.add(oid, size, class_id=0)
        return b

    def test_tcm_from_batches(self):
        batches = [
            self.batch(0, [(1, 10), (2, 20)]),
            self.batch(1, [(1, 10)]),
        ]
        tcm = tcm_from_batches(batches, 2)
        assert tcm[0, 1] == 10

    def test_accrual_pair_count(self):
        batches = [
            self.batch(0, [(1, 10), (2, 10)]),
            self.batch(1, [(1, 10)]),
        ]
        # object 1: 2 threads -> 4 pairs; object 2: 1 thread -> 1 pair.
        assert accrual_pair_count(batches) == 5


def reference_accrual(batches, n_threads):
    """The window fold as the naive daemon does it, over a dict of
    (object, thread) pairs: each pair keeps its largest logged size, an
    object weighs its largest size, and every ordered pair of distinct
    threads that logged it with nonzero bytes accrues that weight.  The
    daemon steps through every pair, zero-byte ones included."""
    pairs: dict[int, dict[int, int]] = {}
    class_of: dict[int, int] = {}
    for b in batches:
        for oid, size, cid in zip(b.obj_ids, b.scaled_bytes, b.class_ids):
            threads = pairs.setdefault(oid, {})
            threads[b.thread_id] = max(threads.get(b.thread_id, 0), size)
            class_of[oid] = cid

    def tcm_of(oids):
        tcm = np.zeros((n_threads, n_threads))
        for oid in oids:
            logged = [t for t, size in pairs[oid].items() if size > 0]
            for i in logged:
                for j in logged:
                    if i != j:
                        tcm[i, j] += max(pairs[oid].values())
        return tcm

    classes = dict.fromkeys(cid for b in batches for cid in b.class_ids)
    return (
        tcm_of(pairs),
        sum(len(threads) ** 2 for threads in pairs.values()),
        sum(len(b) for b in batches),
        {cid: tcm_of([o for o in pairs if class_of[o] == cid]) for cid in classes},
    )


def make_batch(tid, entries):
    """An OAL batch of ``(object, bytes)`` entries; the class id is a
    function of the object id, as in a real run."""
    b = OALBatch(thread_id=tid, interval_id=1)
    for oid, size in entries:
        b.add(oid, size, class_id=oid % 3)
    return b


_WINDOWS = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=12),
                        st.sampled_from([0, 8, 64, 320]),
                    ),
                    max_size=8,
                ),
            ),
            max_size=6,
        ),
    )
)


class TestWindowAccrual:
    @given(_WINDOWS)
    @example((3, []))  # an empty window
    @example((2, [(0, [])]))  # a batch with no entries
    @example((1, [(0, [(1, 64), (2, 0)]), (0, [(1, 64)])]))  # one thread
    @example((2, [(0, [(1, 64), (1, 64)]), (1, [(1, 64)]), (0, [(1, 64)])]))  # duplicates
    @example((2, [(0, [(1, 0)]), (1, [(1, 64)]), (1, [(2, 0)])]))  # zero bytes
    def test_matches_the_dict_of_pairs_reference(self, window):
        n_threads, raw = window
        batches = [make_batch(tid, entries) for tid, entries in raw]
        acc = window_accrual(batches, n_threads, per_class=True)
        tcm, pair_count, n_entries, class_tcms = reference_accrual(batches, n_threads)
        assert np.array_equal(acc.tcm, tcm)
        assert (acc.pair_count, acc.n_entries) == (pair_count, n_entries)
        assert list(acc.class_tcms) == list(class_tcms)
        for cid, ref in class_tcms.items():
            assert np.array_equal(acc.class_tcms[cid], ref)


class TestNormalize:
    def test_peak_scaled_to_one(self):
        tcm = build_tcm([(0, 1, 50.0), (1, 1, 50.0)], 2)
        norm = normalize_tcm(tcm)
        assert norm.max() == 1.0

    def test_zero_matrix_stays_zero(self):
        assert (normalize_tcm(np.zeros((3, 3))) == 0).all()
