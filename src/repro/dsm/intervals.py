"""HLRC interval bookkeeping.

Under (home-based) lazy release consistency, each thread's execution is
divided into *intervals* delimited by synchronization operations
(acquire, release, barrier).  The at-most-once property the paper's
profiler exploits — an object needs to be logged at most once per
interval per thread — follows directly from this structure.

An :class:`IntervalRecord` captures what the profiler ships in the jumbo
OAL message: the interval context (delimiting "bytecode PCs", which in
the simulator are op indices) plus the per-object access summary.

The summaries are stored as four ``obj_id -> int`` columns, not as one
object per touched object: a first touch is four int stores, and a dict
of ints is never tracked by the cyclic collector (DESIGN, "hot-path data
layout").  :attr:`IntervalRecord.accesses` is the read-only view that
builds :class:`AccessSummary` objects for readers off the access path.

The engine keeps no closed records; :class:`IntervalHistory` is the
observer that does, for readers that want every interval of a run.
"""

from __future__ import annotations

from collections.abc import Iterator, KeysView, Mapping
from dataclasses import dataclass, field

from repro.dsm.observer import ProtocolObserver


@dataclass(slots=True)
class AccessSummary:
    """Per-(thread, interval, object) access aggregate."""

    obj_id: int
    reads: int = 0
    writes: int = 0
    #: first/last access times within the interval (thread clock, ns).
    first_ns: int = 0
    last_ns: int = 0

    @property
    def total(self) -> int:
        """Total accesses (reads + writes)."""
        return self.reads + self.writes


class AccessView(Mapping[int, AccessSummary]):
    """Live read-only ``obj_id -> AccessSummary`` view over an interval's
    columns, in first-touch order.  Summaries are built per lookup (a
    copy: writing to one does not reach the interval); membership,
    iteration and ``keys()`` never build one."""

    __slots__ = ("_interval",)

    def __init__(self, interval: IntervalRecord) -> None:
        self._interval = interval

    def __getitem__(self, obj_id: int) -> AccessSummary:
        iv = self._interval
        return AccessSummary(
            obj_id, iv.reads[obj_id], iv.writes[obj_id], iv.first_ns[obj_id], iv.last_ns[obj_id]
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self._interval.reads)

    def __len__(self) -> int:
        return len(self._interval.reads)

    def __contains__(self, obj_id: object) -> bool:
        return obj_id in self._interval.reads

    def keys(self) -> KeysView[int]:
        """The ids touched so far (the column's own key view)."""
        return self._interval.reads.keys()


@dataclass(slots=True)
class IntervalRecord:
    """One closed HLRC interval of one thread."""

    thread_id: int
    interval_id: int
    #: op indices delimiting the interval (the paper uses bytecode PCs).
    start_pc: int = 0
    end_pc: int = 0
    #: thread-clock times at open/close.
    start_ns: int = 0
    end_ns: int = 0
    #: per-object access summary columns: read / write counts and the
    #: first / last access time (thread clock, ns).  All four share one
    #: key set, in first-access order.
    reads: dict[int, int] = field(default_factory=dict)
    writes: dict[int, int] = field(default_factory=dict)
    first_ns: dict[int, int] = field(default_factory=dict)
    last_ns: dict[int, int] = field(default_factory=dict)
    #: object ids written this interval (for write notices).
    written: set[int] = field(default_factory=set)
    #: what closed the interval ("release", "barrier", "acquire", "end").
    close_reason: str = ""
    #: ids re-armed this interval -> the tracking entries of the hooks
    #: that re-armed them (see :meth:`rearm`); a new interval starts
    #: with none.
    rearmed: dict[int, tuple] = field(default_factory=dict)

    @property
    def accesses(self) -> AccessView:
        """Per-object access summaries, in first-access order."""
        return AccessView(self)

    def rearm(self, ids, entries: tuple) -> None:
        """Re-arm ``ids`` for a hook's tracking ``entries``: the engine
        calls each entry as ``entry(thread, obj_id)`` at every later
        access of the id in this interval, after the first-touch
        entries at the access that armed it."""
        rearmed = self.rearmed
        if rearmed.keys().isdisjoint(ids):
            rearmed.update(dict.fromkeys(ids, entries))
            return
        for oid in ids:
            prev = rearmed.get(oid)
            rearmed[oid] = entries if prev is None else prev + entries

    def touch(
        self,
        obj_id: int,
        *,
        is_write: bool,
        count: int,
        now_ns: int,
    ) -> None:
        """Record ``count`` accesses to ``obj_id`` at thread time ``now_ns``."""
        if obj_id not in self.reads:
            self.reads[obj_id] = 0
            self.writes[obj_id] = 0
            self.first_ns[obj_id] = now_ns
        if is_write:
            self.writes[obj_id] += count
            self.written.add(obj_id)
        else:
            self.reads[obj_id] += count
        self.last_ns[obj_id] = now_ns

    @property
    def duration_ns(self) -> int:
        """Interval length in nanoseconds (0 if not yet closed)."""
        return max(0, self.end_ns - self.start_ns)


class IntervalHistory(ProtocolObserver):
    """Every closed interval of a run, per thread in close order.
    Attach with ``djvm.attach(IntervalHistory())``; like any observer it
    keeps the run on the scalar loop (the per-object summaries are the
    scalar loop's)."""

    __slots__ = ("by_thread",)

    def __init__(self) -> None:
        #: thread_id -> closed IntervalRecords, oldest first.
        self.by_thread: dict[int, list[IntervalRecord]] = {}

    def on_interval_close(self, thread, interval) -> None:
        self.by_thread.setdefault(thread.thread_id, []).append(interval)
