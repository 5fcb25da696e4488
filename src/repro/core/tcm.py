"""Thread correlation map (TCM) construction.

The TCM is an N x N histogram: cell (i, j) accumulates the bytes of
objects both thread i and thread j accessed (paper Section II.A).  The
master's daemon reorganizes per-thread OALs into per-object thread
lists, then accrues each object's bytes into every co-accessing thread
pair — O(MN) reorganization plus O(MN^2) accrual, the scalability
bottleneck sampling attacks.

The builder is vectorized per the hpc guides: with an (M x N) indicator
matrix ``X`` of co-access and the per-object byte vector ``s``, the
accrual is one rank-M update ``TCM += (X * s).T @ X`` instead of a
Python triple loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from repro.core.oal import OALBatch


def _tcm_from_arrays(
    tids: np.ndarray,
    oids: np.ndarray,
    sizes: np.ndarray,
    n_threads: int,
    include_diagonal: bool,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Vectorized TCM core over parallel entry arrays.

    Returns ``(tcm, rows, n_objects)`` where ``rows`` maps each entry to
    its dense object row in first-occurrence order (the order the old
    dict-of-pairs pass produced, kept so the accrual matmul sums rows in
    the identical sequence).
    """
    tcm = np.zeros((n_threads, n_threads), dtype=np.float64)
    if tids.size == 0:
        return tcm, tids, 0
    bad = (tids < 0) | (tids >= n_threads)
    if bad.any():
        tid = int(tids[int(np.argmax(bad))])
        raise ValueError(f"thread id {tid} out of range 0..{n_threads - 1}")
    if oids.min() < 0:
        raise ValueError(f"object id {int(oids.min())} is negative")
    # Object ids are dense heap indices, so a table over them is no
    # longer than the heap: each id's first entry, then the present ids
    # ranked by it.
    first = np.full(int(oids.max()) + 1, oids.size)
    np.minimum.at(first, oids, np.arange(oids.size))
    present = np.flatnonzero(first < oids.size)
    n_objects = int(present.size)
    rank = np.empty_like(first)
    rank[present[np.argsort(first[present])]] = np.arange(n_objects)
    rows = rank[oids]
    bytes_mat = np.zeros((n_objects, n_threads), dtype=np.float64)
    np.maximum.at(bytes_mat, (rows, tids), sizes)
    # An object's size is logged identically by every accessor (the
    # amortized sample size is a property of the object, not the thread),
    # so take the row-wise max as the object's byte weight.
    obj_sizes = bytes_mat.max(axis=1)
    indicator = (bytes_mat > 0).astype(np.float64)
    tcm = (indicator * obj_sizes[:, None]).T @ indicator
    if not include_diagonal:
        np.fill_diagonal(tcm, 0.0)
    return tcm, rows, n_objects


def _entry_arrays(
    entries: Iterable[tuple[int, int, float]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode (thread_id, object_id, bytes) tuples into parallel arrays
    with a single buffered pass (no per-entry Python bookkeeping)."""
    flat = np.fromiter(chain.from_iterable(entries), dtype=np.float64)
    if flat.size % 3:
        raise ValueError("entries must be (thread_id, object_id, bytes) triples")
    arr = flat.reshape(-1, 3)
    return (
        arr[:, 0].astype(np.int64),
        arr[:, 1].astype(np.int64),
        arr[:, 2],
    )


def _batch_arrays(
    batches: Iterable[OALBatch],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode OAL batches into parallel (tids, oids, sizes, class_ids)
    arrays: each batch column chains through C iterators into its array
    in one buffered pass and the thread ids are repeated per batch."""
    batches = list(batches)
    lens = [len(batch) for batch in batches]
    total = sum(lens)
    tids = np.repeat(np.array([batch.thread_id for batch in batches], dtype=np.int64), lens)
    return (
        tids,
        np.fromiter(chain.from_iterable(b.obj_ids for b in batches), np.int64, total),
        np.fromiter(chain.from_iterable(b.scaled_bytes for b in batches), np.float64, total),
        np.fromiter(chain.from_iterable(b.class_ids for b in batches), np.int64, total),
    )


def build_tcm(
    entries: Iterable[tuple[int, int, float]],
    n_threads: int,
    *,
    include_diagonal: bool = False,
) -> np.ndarray:
    """Build a TCM from (thread_id, object_id, bytes) tuples.

    Each distinct (thread, object) pair contributes once with the
    *maximum* bytes seen for it (re-accesses across intervals do not
    multiply an object's size into the map; the histogram accrues per
    processing window, and callers wanting per-window accrual call this
    once per window and sum).
    """
    if n_threads < 1:
        raise ValueError(f"need at least one thread, got {n_threads}")
    tids, oids, sizes = _entry_arrays(entries)
    tcm, _rows, _n = _tcm_from_arrays(tids, oids, sizes, n_threads, include_diagonal)
    return tcm


def tcm_from_batches(
    batches: Iterable[OALBatch],
    n_threads: int,
    *,
    include_diagonal: bool = False,
) -> np.ndarray:
    """Build a TCM from collected OAL batches (one processing window)."""
    if n_threads < 1:
        raise ValueError(f"need at least one thread, got {n_threads}")
    tids, oids, sizes, _cids = _batch_arrays(batches)
    tcm, _rows, _n = _tcm_from_arrays(tids, oids, sizes, n_threads, include_diagonal)
    return tcm


def resampled_tcm(batches: Iterable[OALBatch], policy, obj_of, n_threads: int) -> np.ndarray:
    """The TCM of the entries of ``batches`` that ``policy`` samples,
    each at its Horvitz-Thompson bytes — a full-sampling log replayed
    at ``policy``'s rates.  ``obj_of(obj_id)`` gives the entry's
    :class:`~repro.heap.objects.HeapObject`; each entry costs one
    ``policy.decision``, so the backend counts each decision once."""
    decision = policy.decision

    def entries():
        for batch in batches:
            tid = batch.thread_id
            for oid in batch.obj_ids:
                sampled, _logged, scaled = decision(obj_of(oid))
                if sampled:
                    yield tid, oid, scaled

    return build_tcm(entries(), n_threads)


def _per_class_tcms(
    tids: np.ndarray,
    oids: np.ndarray,
    sizes: np.ndarray,
    cids: np.ndarray,
    n_threads: int,
    include_diagonal: bool,
) -> dict[int, np.ndarray]:
    """Per-class TCMs keyed in first-appearance order of the class ids."""
    by_class: dict[int, np.ndarray] = {}
    if cids.size == 0:
        return by_class
    uniq, first_idx = np.unique(cids, return_index=True)
    for cid in uniq[np.argsort(first_idx, kind="stable")]:
        mask = cids == cid
        tcm, _rows, _n = _tcm_from_arrays(
            tids[mask], oids[mask], sizes[mask], n_threads, include_diagonal
        )
        by_class[int(cid)] = tcm
    return by_class


def tcm_by_class(
    batches: Iterable[OALBatch],
    n_threads: int,
    *,
    include_diagonal: bool = False,
) -> dict[int, np.ndarray]:
    """Per-class TCMs from one window's batches: class_id -> map built
    from only that class's entries.  The full map is their sum; per-class
    maps are what per-class rate adaptation compares across windows."""
    tids, oids, sizes, cids = _batch_arrays(batches)
    return _per_class_tcms(tids, oids, sizes, cids, n_threads, include_diagonal)


def accrual_pair_count(batches: Iterable[OALBatch]) -> int:
    """Number of (object, thread-pair) accrual steps the naive O(MN^2)
    daemon would execute — the quantity the TCM-computing cost model
    charges for."""
    threads_per_obj: dict[int, set[int]] = {}
    for batch in batches:
        for obj_id in batch.obj_ids:
            threads_per_obj.setdefault(obj_id, set()).add(batch.thread_id)
    return sum(len(ts) * len(ts) for ts in threads_per_obj.values())  # simlint: disable=SIM003 (integer sum; order cannot leak)


@dataclass
class WindowAccrual:
    """Everything the collector needs from one processing window,
    computed in a single traversal of the window's batches."""

    #: the window's TCM.
    tcm: np.ndarray
    #: naive-daemon accrual steps (drives the O3 cost model).
    pair_count: int
    #: OAL entries in the window (drives the reorganization cost).
    n_entries: int
    #: class_id -> per-class TCM (only when requested).
    class_tcms: dict[int, np.ndarray] | None = None


def window_accrual(
    batches: Iterable[OALBatch],
    n_threads: int,
    *,
    per_class: bool = False,
    include_diagonal: bool = False,
) -> WindowAccrual:
    """Fold one window's batches into TCM + accrual statistics at once.

    Replaces the collector's separate ``accrual_pair_count`` +
    ``tcm_from_batches`` (+ optional ``tcm_by_class``) traversals with
    one decode pass and shared index arrays.
    """
    if n_threads < 1:
        raise ValueError(f"need at least one thread, got {n_threads}")
    if not isinstance(batches, (list, tuple)):
        batches = list(batches)
    tids, oids, sizes, cids = _batch_arrays(batches)
    tcm, rows, n_objects = _tcm_from_arrays(
        tids, oids, sizes, n_threads, include_diagonal
    )
    if n_objects == 0:
        pair_count = 0
    else:
        # Distinct (object, thread) pairs, zero-byte entries included,
        # counted per object: the naive daemon accrues |threads(obj)|^2
        # steps per object.
        seen = np.zeros((n_objects, n_threads), dtype=bool)
        seen[rows, tids] = True
        per_obj = seen.sum(axis=1, dtype=np.int64)
        pair_count = int((per_obj**2).sum())
    class_tcms = (
        _per_class_tcms(tids, oids, sizes, cids, n_threads, include_diagonal)
        if per_class
        else None
    )
    return WindowAccrual(
        tcm=tcm,
        pair_count=pair_count,
        n_entries=int(tids.size),
        class_tcms=class_tcms,
    )


def normalize_tcm(tcm: np.ndarray) -> np.ndarray:
    """Scale a TCM so its maximum cell is 1 (for heatmap rendering)."""
    peak = tcm.max()
    if peak <= 0:
        return np.zeros_like(tcm)
    return tcm / peak
