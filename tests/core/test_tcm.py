"""Tests for thread correlation map construction."""

from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.oal import OALBatch
from repro.core.tcm import (
    TCMAccumulator,
    build_tcm,
    normalize_tcm,
    resampled_tcm,
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
        assert window_accrual(batches, 2).pair_count == 5


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


def whole_window_reference(batches, n_threads):
    """The window build as it was before batches were folded one at a
    time: decode every batch of the window into parallel arrays, rank
    the objects by first occurrence, and accrue once; per class, the
    same over that class's entries.  Returns ``(tcm, pair_count,
    n_entries, class_tcms)``."""
    lens = [len(b) for b in batches]
    tids = np.repeat(np.array([b.thread_id for b in batches], dtype=np.int64), lens)
    def column(name, dtype):
        values = chain.from_iterable(getattr(b, name) for b in batches)
        return np.fromiter(values, dtype, sum(lens))

    oids = column("obj_ids", np.int64)
    sizes = column("scaled_bytes", np.float64)
    cids = column("class_ids", np.int64)

    def tcm_from_arrays(tids, oids, sizes):
        tcm = np.zeros((n_threads, n_threads), dtype=np.float64)
        if tids.size == 0:
            return tcm, tids, 0
        first = np.full(int(oids.max()) + 1, oids.size)
        np.minimum.at(first, oids, np.arange(oids.size))
        present = np.flatnonzero(first < oids.size)
        n_objects = int(present.size)
        rank = np.empty_like(first)
        rank[present[np.argsort(first[present])]] = np.arange(n_objects)
        rows = rank[oids]
        bytes_mat = np.zeros((n_objects, n_threads), dtype=np.float64)
        np.maximum.at(bytes_mat, (rows, tids), sizes)
        obj_sizes = bytes_mat.max(axis=1)
        indicator = (bytes_mat > 0).astype(np.float64)
        tcm = (indicator * obj_sizes[:, None]).T @ indicator
        np.fill_diagonal(tcm, 0.0)
        return tcm, rows, n_objects

    tcm, rows, n_objects = tcm_from_arrays(tids, oids, sizes)
    seen = np.zeros((n_objects, n_threads), dtype=bool)
    seen[rows, tids] = True
    pair_count = int((seen.sum(axis=1, dtype=np.int64) ** 2).sum())
    class_tcms = {}
    uniq, first_idx = np.unique(cids, return_index=True)
    for cid in uniq[np.argsort(first_idx, kind="stable")]:
        mask = cids == cid
        class_tcms[int(cid)] = tcm_from_arrays(tids[mask], oids[mask], sizes[mask])[0]
    return tcm, pair_count, int(tids.size), class_tcms


def assert_same_window(acc, batches, n_threads):
    """``acc`` (a finished window) is bit for bit the whole-window build."""
    tcm, pair_count, n_entries, class_tcms = whole_window_reference(batches, n_threads)
    assert acc.tcm.tobytes() == tcm.tobytes()
    assert (acc.pair_count, acc.n_entries) == (pair_count, n_entries)
    assert list(acc.class_tcms) == list(class_tcms)
    for cid, ref in class_tcms.items():
        assert acc.class_tcms[cid].tobytes() == ref.tobytes()


def oal_batch(tid, oids, sizes):
    """An OAL batch as a profiler ships it: distinct ids, the class id a
    function of the object id."""
    b = OALBatch(thread_id=tid, interval_id=1)
    for oid, size in zip(oids, sizes):
        b.add(oid, size, class_id=oid % 3)
    return b


_STREAMS = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        # windows of batches of (thread, distinct ids, their sizes)
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.lists(st.integers(min_value=0, max_value=300), unique=True, max_size=12),
                    st.randoms(use_true_random=False),
                ),
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        ),
    )
)


class TestFoldOneBatchAtATime:
    """Folding each batch as it arrives equals the whole-window build, bit
    for bit, on one accumulator reused across windows."""

    def fold_windows(self, n_threads, windows):
        acc = TCMAccumulator(n_threads)
        for batches in windows:
            for batch in batches:
                acc.fold_batch(batch, per_class=True)
            assert acc.n_batches == len(batches)
            assert_same_window(acc.finish(per_class=True), batches, n_threads)
            assert (acc.n_rows, acc.n_entries, acc.n_batches) == (0, 0, 0)

    @settings(max_examples=150, deadline=None)
    @given(_STREAMS)
    def test_generated_streams(self, stream):
        n_threads, raw = stream
        windows = [
            [
                # Sizes whose float sums depend on their order: the rows
                # must be ranked exactly as the whole-window build ranks them.
                oal_batch(tid, oids, [rnd.choice([0, 8, 64, 0.1, 1 / 3, 1e17]) for _ in oids])
                for tid, oids, rnd in window
            ]
            for window in raw
        ]
        self.fold_windows(n_threads, windows)

    def test_zero_byte_entries(self):
        """A zero-byte entry counts as a pair step but accrues nothing."""
        window = [
            oal_batch(0, [1, 2], [0, 64]),
            oal_batch(1, [1, 2], [0, 0]),
            oal_batch(2, [1], [64]),
        ]
        self.fold_windows(3, [window])

    def test_one_object_in_many_batches_and_threads(self):
        window = [oal_batch(t % 4, [7, 100 + t], [64, 8]) for t in range(12)]
        self.fold_windows(4, [window])

    def test_ids_beyond_the_tables_grow_them(self):
        small = [oal_batch(0, [0, 1], [8, 8]), oal_batch(1, [1], [8])]
        large = [oal_batch(1, [5000, 1], [64, 8]), oal_batch(0, [70_000, 5000, 3], [8, 64, 8])]
        self.fold_windows(2, [small, large, small])

    def test_reuse_across_windows_forgets_the_last(self):
        acc = TCMAccumulator(2)
        acc.fold_batch(oal_batch(0, [1, 2], [64, 64]))
        acc.fold_batch(oal_batch(1, [1, 2], [64, 64]))
        assert acc.finish().tcm[0, 1] == 128
        acc.fold_batch(oal_batch(0, [2], [64]))
        acc.fold_batch(oal_batch(1, [3], [64]))
        assert acc.finish().tcm[0, 1] == 0

    def test_a_batch_that_repeats_an_id_still_folds_exactly(self):
        window = [oal_batch(0, [4, 4, 1], [8, 64, 8]), oal_batch(1, [1, 4], [8, 64])]
        self.fold_windows(2, [window])

    def test_errors_keep_their_messages(self):
        acc = TCMAccumulator(2)
        with pytest.raises(ValueError, match=r"thread id 2 out of range 0\.\.1"):
            acc.fold_batch(oal_batch(2, [1], [8]))
        with pytest.raises(ValueError, match="object id -3 is negative"):
            acc.fold_batch(oal_batch(0, [1, -3], [8, 8]))
        with pytest.raises(ValueError, match=r"thread id 5 out of range 0\.\.1"):
            build_tcm([(0, 1, 1.0), (5, 1, 1.0)], 2)
        with pytest.raises(ValueError, match="need at least one thread, got 0"):
            TCMAccumulator(0)
        assert (acc.n_rows, acc.n_entries, acc.n_batches) == (0, 0, 0)

    def test_per_class_maps_need_one_class_per_object(self):
        acc = TCMAccumulator(2)
        b = OALBatch(thread_id=0, interval_id=1)
        b.add(1, 8, class_id=0)
        acc.fold_batch(b, per_class=True)
        b = OALBatch(thread_id=1, interval_id=1)
        b.add(1, 8, class_id=1)
        acc.fold_batch(b, per_class=True)
        with pytest.raises(ValueError, match="two class ids"):
            acc.finish(per_class=True)

    def test_per_class_maps_need_every_batch_folded_with_its_classes(self):
        acc = TCMAccumulator(2)
        acc.fold_batch(oal_batch(0, [1], [8]), per_class=True)
        acc.fold_batch(oal_batch(1, [1], [8]))
        with pytest.raises(ValueError, match="without its class ids"):
            acc.finish(per_class=True)
        assert acc.finish().tcm[0, 1] == 8


class TestResampled:
    @settings(max_examples=60, deadline=None)
    @given(_STREAMS, st.sampled_from([1, 2, 3, 7]))
    def test_equals_the_entry_stream_build(self, stream, gap):
        """Replaying a log at a rate folds each batch's sampled entries:
        bit for bit the build over the same entries as one stream, with
        one decision per distinct object, made in one batch."""
        n_threads, raw = stream
        batches = [
            oal_batch(tid, oids, [64] * len(oids)) for window in raw for tid, oids, _ in window
        ]
        space = object()

        class Policy:
            def __init__(self):
                self.decided = []

            def decide_batch(self, ids, gos):
                assert gos is space
                self.decided.append(list(ids))
                return [(oid % gap == 0, 8, 8 * gap + oid) for oid in ids]

        policy = Policy()
        tcm = resampled_tcm(batches, policy, space, n_threads)
        entries = [
            (b.thread_id, oid, 8 * gap + oid) for b in batches for oid in b.obj_ids if oid % gap == 0
        ]
        assert tcm.tobytes() == build_tcm(entries, n_threads).tobytes()
        assert policy.decided == [sorted({oid for b in batches for oid in b.obj_ids})]


class TestNormalize:
    def test_peak_scaled_to_one(self):
        tcm = build_tcm([(0, 1, 50.0), (1, 1, 50.0)], 2)
        norm = normalize_tcm(tcm)
        assert norm.max() == 1.0

    def test_zero_matrix_stays_zero(self):
        assert (normalize_tcm(np.zeros((3, 3))) == 0).all()
