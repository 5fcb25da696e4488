"""HLRC interval bookkeeping.

Under (home-based) lazy release consistency, each thread's execution is
divided into *intervals* delimited by synchronization operations
(acquire, release, barrier).  The at-most-once property the paper's
profiler exploits — an object needs to be logged at most once per
interval per thread — follows directly from this structure.

An :class:`IntervalRecord` holds the protocol's own state of one
interval: its identity (delimiting "bytecode PCs", which in the
simulator are op indices, and thread-clock times), the set of ids it
touched (what makes a first touch a first touch), the ids it wrote
(what publishes write notices at close) and the ids a hook re-armed.
Sets of ints are never tracked by the cyclic collector (DESIGN,
"hot-path data layout").

Per-object access counts and times are an observer's business:
:class:`AccessSummaries` folds the per-op access stream into one
:class:`AccessSummary` per touched object and hands them over at close.
:class:`IntervalHistory` keeps every closed record with its summaries,
for readers that want every interval of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dsm.observer import ProtocolObserver

#: the bound a tracking entry is handed where no timer deadline can fall
#: among its stops: no clock reaches it.
NO_BOUND = 1 << 62


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


@dataclass(slots=True)
class IntervalRecord:
    """One HLRC interval of one thread."""

    thread_id: int
    interval_id: int
    #: op indices delimiting the interval (the paper uses bytecode PCs).
    start_pc: int = 0
    end_pc: int = 0
    #: thread-clock times at open/close.
    start_ns: int = 0
    end_ns: int = 0
    #: object ids touched this interval: an access to one of them is
    #: no first touch.
    touched: set[int] = field(default_factory=set)
    #: object ids written this interval (for write notices).
    written: set[int] = field(default_factory=set)
    #: what closed the interval ("release", "barrier", "acquire", "end").
    close_reason: str = ""
    #: None, or — once the thread changed node during the interval —
    #: the ids it wrote on the nodes it left.  Each move flushes them
    #: there (``MigrationEngine.migrate``) and takes them out of
    #: ``written``; the close adds them back before any hook reads it.
    flushed: set[int] | None = None
    #: ids the run's one re-arming hook re-armed this interval: every
    #: access of one, the arming first touch included, goes to its
    #: tracking entry (``ProtocolHooks``); a new interval starts with
    #: none.
    rearmed: set[int] = field(default_factory=set)

    @property
    def duration_ns(self) -> int:
        """Interval length in nanoseconds (0 if not yet closed)."""
        return max(0, self.end_ns - self.start_ns)


class AccessSummaries(ProtocolObserver):
    """The one fold of per-object access summaries: an observer whose
    ``on_access`` sums each access op's ``repeat`` into the reads or
    writes of its object in the thread's open interval, and stamps the
    object's first and last access with the thread's clock at the call
    (so its runs stay on the scalar loop).  At close it hands the
    finished ``{obj_id: AccessSummary}``, in first-touch order, to
    :meth:`on_summaries`, which subclasses override."""

    __slots__ = ("_open",)

    def __init__(self) -> None:
        # thread_id -> the open interval's summaries (created at the
        # interval's first access, handed over at its close).
        self._open: dict[int, dict[int, AccessSummary]] = {}

    def on_access(self, thread, obj_id, is_write, repeat, state, obj, faulted) -> None:
        now = thread.clock._now_ns
        summaries = self._open.get(thread.thread_id)
        if summaries is None:
            summaries = self._open[thread.thread_id] = {}
        summary = summaries.get(obj_id)
        if summary is None:
            summary = summaries[obj_id] = AccessSummary(obj_id, first_ns=now)
        if is_write:
            summary.writes += repeat
        else:
            summary.reads += repeat
        summary.last_ns = now

    def on_interval_close(self, thread, interval) -> None:
        self.on_summaries(thread, interval, self._open.pop(thread.thread_id, {}))

    def on_summaries(self, thread, interval, summaries: dict[int, AccessSummary]) -> None:
        """``interval`` closed; ``summaries`` are its accesses."""


class IntervalHistory(AccessSummaries):
    """Every closed interval of a run, per thread in close order, with
    its access summaries.  Attach with ``djvm.attach(IntervalHistory())``;
    like any :class:`AccessSummaries` it keeps the run on the scalar
    loop."""

    __slots__ = ("by_thread", "summaries")

    def __init__(self) -> None:
        super().__init__()
        #: thread_id -> closed IntervalRecords, oldest first.
        self.by_thread: dict[int, list[IntervalRecord]] = {}
        #: thread_id -> each closed interval's summaries, parallel to
        #: :attr:`by_thread`.
        self.summaries: dict[int, list[dict[int, AccessSummary]]] = {}

    def on_summaries(self, thread, interval, summaries) -> None:
        self.by_thread.setdefault(thread.thread_id, []).append(interval)
        self.summaries.setdefault(thread.thread_id, []).append(summaries)
