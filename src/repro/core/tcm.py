"""Thread correlation map (TCM) construction.

The TCM is an N x N histogram: cell (i, j) accumulates the bytes of
objects both thread i and thread j accessed (paper Section II.A).  The
master's daemon reorganizes per-thread OALs into per-object thread
lists, then accrues each object's bytes into every co-accessing thread
pair — O(MN) reorganization plus O(MN^2) accrual, the scalability
bottleneck sampling attacks.

Every TCM goes through one :class:`TCMAccumulator`.  It folds the
window's OAL batches as they arrive — the collector folds each at its
delivery and keeps no batch — into an (M x N) table of each object's
largest logged bytes per thread, and finishing the window is one rank-M
update ``TCM = (X * s).T @ X`` over the indicator matrix ``X`` of
co-access and the per-object byte vector ``s``, instead of a Python
triple loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from repro.core.oal import OALBatch


def _accrue(bytes_mat: np.ndarray, n_threads: int, include_diagonal: bool) -> np.ndarray:
    """The accrual over object rows of largest logged bytes per thread.

    An object's size is logged identically by every accessor (the
    amortized sample size is a property of the object, not the thread),
    so the row-wise max is the object's byte weight, accrued into every
    pair of threads that logged it with nonzero bytes.
    """
    if not bytes_mat.shape[0]:
        return np.zeros((n_threads, n_threads), dtype=np.float64)
    obj_sizes = bytes_mat.max(axis=1)
    indicator = (bytes_mat > 0).astype(np.float64)
    tcm = (indicator * obj_sizes[:, None]).T @ indicator
    if not include_diagonal:
        np.fill_diagonal(tcm, 0.0)
    return tcm


@dataclass
class WindowAccrual:
    """Everything the collector needs from one processing window."""

    #: the window's TCM.
    tcm: np.ndarray
    #: naive-daemon accrual steps (drives the O3 cost model).
    pair_count: int
    #: OAL entries in the window (drives the reorganization cost).
    n_entries: int
    #: class_id -> per-class TCM (only when requested).
    class_tcms: dict[int, np.ndarray] | None = None


class TCMAccumulator:
    """One processing window's TCM, folded one batch at a time.

    Rows are the window's objects ranked by first occurrence, so the
    accrual matmul sums them in the order a build over the whole window
    at once would.  Per (row, thread) it keeps the largest bytes logged
    and whether the thread logged the object at all (zero-byte entries
    included: the naive daemon steps through them too), and per row the
    object's class.  :meth:`finish` turns that into the window's
    :class:`WindowAccrual` and empties the accumulator.  Its arrays are
    kept at their size, so one accumulator serves every window of a run.
    """

    def __init__(self, n_threads: int) -> None:
        if n_threads < 1:
            raise ValueError(f"need at least one thread, got {n_threads}")
        self.n_threads = n_threads
        #: object id -> row, -1 when not in the window; grown to the
        #: largest id folded (ids are dense heap indices).
        self._row_of = np.full(0, -1, dtype=np.int64)
        #: scratch over object ids for the distinct-ids check.
        self._stamp = np.zeros(0, dtype=np.int64)
        #: row -> object id and class id.
        self._obj = np.zeros(0, dtype=np.int64)
        self._cls = np.zeros(0, dtype=np.int64)
        #: (row, thread) -> largest bytes logged, and logged at all.
        self._bytes = np.zeros((0, n_threads), dtype=np.float64)
        self._seen = np.zeros((0, n_threads), dtype=bool)
        #: rows, entries and batches folded since the last finish.
        self.n_rows = 0
        self.n_entries = 0
        self.n_batches = 0
        #: why this window can have no per-class maps, if it cannot.
        self._classless: str | None = None

    def fold_batch(self, batch: OALBatch, *, per_class: bool = False) -> None:
        """Fold one OAL batch, with its class ids when ``per_class``.
        The at-most-once rule makes its ids distinct, which lets it skip
        a sort; a batch that repeats an id is still folded exactly."""
        n = len(batch.obj_ids)
        self.fold_thread(
            batch.thread_id,
            np.fromiter(batch.obj_ids, np.int64, n),
            np.fromiter(batch.scaled_bytes, np.float64, n),
            np.fromiter(batch.class_ids, np.int64, n) if per_class and n else None,
        )

    def fold_thread(self, tid: int, oids: np.ndarray, sizes: np.ndarray, cids: np.ndarray | None = None) -> None:
        """Fold one batch of thread ``tid`` given as entry arrays (object
        ids, bytes and optionally class ids)."""
        if oids.size:
            if not 0 <= tid < self.n_threads:
                raise ValueError(f"thread id {tid} out of range 0..{self.n_threads - 1}")
            self._fold(tid, oids, sizes, cids)
        self.n_batches += 1

    def fold(self, tids: np.ndarray, oids: np.ndarray, sizes: np.ndarray) -> None:
        """Fold parallel entry arrays of any threads, ids repeating or
        not, without classes."""
        bad = (tids < 0) | (tids >= self.n_threads)
        if bad.any():
            tid = int(tids[int(np.argmax(bad))])
            raise ValueError(f"thread id {tid} out of range 0..{self.n_threads - 1}")
        self._fold(tids, oids, sizes, None)

    def _fold(self, tids, oids: np.ndarray, sizes: np.ndarray, cids: np.ndarray | None) -> None:
        """Rank the new ids after the window's rows, then take the max
        of each (row, thread) cell and mark it seen.  ``tids`` is one
        thread id (a batch) or an array parallel to ``oids``; ``cids``
        the class ids, or None."""
        if not oids.size:
            return
        low = int(oids.min())
        if low < 0:
            raise ValueError(f"object id {low} is negative")
        top = int(oids.max()) + 1
        if top > self._row_of.size:
            self._grow_ids(top)
        row_of = self._row_of
        rows = row_of[oids]
        # One thread and distinct ids: each (row, thread) cell once.
        distinct = isinstance(tids, int) and self._distinct(oids)
        new = rows < 0
        if new.any():
            new_ids = oids[new]
            # Where ids repeat: each new id's first position, in order.
            new_at = None if distinct else np.sort(np.unique(new_ids, return_index=True)[1])
            if new_at is not None:
                new_ids = new_ids[new_at]
            start = self.n_rows
            stop = start + new_ids.size
            if stop > self._obj.size:
                self._grow_rows(stop)
            row_of[new_ids] = np.arange(start, stop)
            self._obj[start:stop] = new_ids
            if cids is not None:
                new_cls = cids[new]
                self._cls[start:stop] = new_cls if new_at is None else new_cls[new_at]
            self.n_rows = stop
            rows = row_of[oids]
        if cids is None:
            self._classless = "a batch of the window was folded without its class ids"
        elif self._classless is None and (self._cls[rows] != cids).any():
            self._classless = "an object was logged under two class ids in one window"
        if distinct:
            self._bytes[rows, tids] = np.maximum(self._bytes[rows, tids], sizes)
        else:
            np.maximum.at(self._bytes, (rows, tids), sizes)
        self._seen[rows, tids] = True
        self.n_entries += int(oids.size)

    def _distinct(self, oids: np.ndarray) -> bool:
        """Are the ids pairwise distinct?  Each writes its position into
        the stamp table; a repeated id loses one of its writes."""
        pos = np.arange(oids.size)
        self._stamp[oids] = pos
        return bool((self._stamp[oids] == pos).all())

    def _grow_ids(self, top: int) -> None:
        size = max(top, 2 * self._row_of.size)
        row_of = np.full(size, -1, dtype=np.int64)
        row_of[: self._row_of.size] = self._row_of
        self._row_of = row_of
        self._stamp = np.zeros(size, dtype=np.int64)

    def _grow_rows(self, need: int) -> None:
        size = max(need, 2 * self._obj.size)
        n = self.n_rows
        for name in ("_obj", "_cls", "_bytes", "_seen"):
            old = getattr(self, name)
            grown = np.zeros((size, *old.shape[1:]), dtype=old.dtype)
            grown[:n] = old[:n]
            setattr(self, name, grown)

    def row_sharers(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's object id and how many threads logged it."""
        n = self.n_rows
        return self._obj[:n], self._seen[:n].sum(axis=1, dtype=np.int64)

    def finish(
        self, *, per_class: bool = False, include_diagonal: bool = False
    ) -> WindowAccrual:
        """The window's TCM, its naive-daemon pair count (the daemon
        accrues ``|threads(obj)|^2`` steps per object), its entry count
        and, with ``per_class``, one TCM per class in the order the
        classes first appeared; then empty the accumulator."""
        n = self.n_rows
        bytes_mat = self._bytes[:n]
        _, sharers = self.row_sharers()
        class_tcms = None
        if per_class:
            if self._classless is not None:
                raise ValueError(self._classless)
            cls = self._cls[:n]
            uniq, first = np.unique(cls, return_index=True)
            class_tcms = {
                int(cid): _accrue(bytes_mat[cls == cid], self.n_threads, include_diagonal)
                for cid in uniq[np.argsort(first)]
            }
        acc = WindowAccrual(
            tcm=_accrue(bytes_mat, self.n_threads, include_diagonal),
            pair_count=int((sharers * sharers).sum()),
            n_entries=self.n_entries,
            class_tcms=class_tcms,
        )
        self.reset()
        return acc

    def reset(self) -> None:
        """Empty the window, keeping the arrays for the next one."""
        n = self.n_rows
        self._row_of[self._obj[:n]] = -1
        self._bytes[:n] = 0.0
        self._seen[:n] = False
        self.n_rows = self.n_entries = self.n_batches = 0
        self._classless = None


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


def window_accrual(
    batches: Iterable[OALBatch],
    n_threads: int,
    *,
    per_class: bool = False,
    include_diagonal: bool = False,
    acc: TCMAccumulator | None = None,
) -> WindowAccrual:
    """Fold ``batches`` into ``acc`` (a fresh accumulator over
    ``n_threads`` when None) and finish the window.  The collector has
    folded each batch at its delivery, so it passes none and only
    finishes."""
    if acc is None:
        acc = TCMAccumulator(n_threads)
    for batch in batches:
        acc.fold_batch(batch, per_class=per_class)
    return acc.finish(per_class=per_class, include_diagonal=include_diagonal)


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
    acc = TCMAccumulator(n_threads)
    acc.fold(*_entry_arrays(entries))
    return acc.finish(include_diagonal=include_diagonal).tcm


def tcm_from_batches(
    batches: Iterable[OALBatch],
    n_threads: int,
    *,
    include_diagonal: bool = False,
) -> np.ndarray:
    """Build a TCM from collected OAL batches (one processing window)."""
    return window_accrual(batches, n_threads, include_diagonal=include_diagonal).tcm


def resampled_tcm(batches: Iterable[OALBatch], policy, gos, n_threads: int) -> np.ndarray:
    """The TCM of the entries of ``batches`` that ``policy`` samples,
    each at its Horvitz-Thompson bytes — a full-sampling log replayed
    at ``policy``'s rates, folded one batch at a time.  Entry ids are
    object ids of the global object space ``gos``.  The log's distinct
    objects are decided in one ``policy.decide_batch`` over those ids,
    so the backend counts each object once however many entries log
    it; their scaled bytes form one column by id (NaN: not sampled),
    which each batch gathers at its ids."""
    batches = list(batches)
    ids = sorted(set(chain.from_iterable(batch.obj_ids for batch in batches)))
    decisions = policy.decide_batch(ids, gos)
    scaled = np.full(ids[-1] + 1 if ids else 0, np.nan)
    picked = [(oid, dec[2]) for oid, dec in zip(ids, decisions) if dec[0]]
    if picked:
        at, values = zip(*picked)
        scaled[list(at)] = np.array(values, dtype=np.float64)
    acc = TCMAccumulator(n_threads)
    for batch in batches:
        oids = np.fromiter(batch.obj_ids, np.int64, len(batch.obj_ids))
        sizes = scaled[oids]
        keep = ~np.isnan(sizes)
        acc.fold_thread(batch.thread_id, oids[keep], sizes[keep])
    return acc.finish().tcm


def tcm_by_class(
    batches: Iterable[OALBatch],
    n_threads: int,
    *,
    include_diagonal: bool = False,
) -> dict[int, np.ndarray]:
    """Per-class TCMs from one window's batches: class_id -> map built
    from only that class's objects.  The full map is their sum; per-class
    maps are what per-class rate adaptation compares across windows."""
    return window_accrual(
        batches, n_threads, per_class=True, include_diagonal=include_diagonal
    ).class_tcms


def normalize_tcm(tcm: np.ndarray) -> np.ndarray:
    """Scale a TCM so its maximum cell is 1 (for heatmap rendering)."""
    peak = tcm.max()
    if peak <= 0:
        return np.zeros_like(tcm)
    return tcm / peak
