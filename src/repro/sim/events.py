"""Deterministic discrete-event kernel.

Before this module existed, the simulator's notion of time was smeared
across three private mechanisms: the interpreter's run-to-sync loop
(pick the runnable thread with the smallest clock), per-op polling of
every :class:`~repro.runtime.interpreter.TimerHook`, and
``MigrationEngine`` piggybacking on pending-flag checks — while
``Network.send`` charged cost instantly with no queueing at all.  The
:class:`EventLoop` collapses them into one auditable kernel: every
scheduling decision is a typed event popped from a single heap, totally
ordered by ``(time_ns, seq)``.

Event types
-----------

``SEGMENT_END``
    A thread's execution segment concluded at ``time_ns``; dispatching
    the event resumes the thread (the interpreter computes the next
    segment and schedules its end).
``TIMER_FIRE``
    A timer-driven profiler component (stack sampler, footprint phase
    timer) reached an absolute deadline.  Deadline timers that resolve
    synchronously inside a segment *record* their fires into the trace
    at the simulated instant they happened, so the trace is complete
    even when no heap scheduling was needed.
``MESSAGE_DELIVER``
    A queued network message finished serializing on its link and
    arrives at the destination (scheduled by :class:`~repro.sim.network.
    Network` when queueing is enabled).
``BARRIER_RELEASE``
    The last participant arrived at a barrier; dispatching the event
    performs the release (clock alignment, write-notice distribution)
    and wakes the waiters.
``MIGRATION_CHECK``
    A thread with a pending migration plan reached a scheduling point;
    dispatching the event evaluates the plan's trigger and fires the
    migration.

Ordering guarantees
-------------------

* Events pop in nondecreasing ``time_ns`` order.
* Ties on ``time_ns`` break by ``seq`` — the order the events were
  scheduled.  Producers that wake several threads at one instant (e.g.
  a barrier release) schedule them in thread-table order, so the
  tie-break reproduces the legacy scheduler's "first thread in the
  list" rule and two runs of the same workload produce byte-identical
  event traces.
* ``record()`` appends an already-dispatched event directly to the
  trace (no heap traffic) for components that resolve their timing
  synchronously.  A recorded event draws no ``seq``: it sits in the
  trace at the point it was recorded, between the pops around it, and
  scheduled events' tie-breaks are unaffected by it.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any, Callable, Iterator


class EventKind(enum.IntEnum):
    """Typed events the kernel understands (see module docstring)."""

    SEGMENT_END = 0
    TIMER_FIRE = 1
    MESSAGE_DELIVER = 2
    BARRIER_RELEASE = 3
    MIGRATION_CHECK = 4


class Event:
    """One scheduled (or recorded) simulation event.

    ``actor`` identifies the subject — a thread id for ``SEGMENT_END`` /
    ``TIMER_FIRE`` / ``MIGRATION_CHECK``, a barrier id for
    ``BARRIER_RELEASE``, a destination node id for ``MESSAGE_DELIVER``.
    ``data`` carries an event-specific payload (the kernel never
    inspects it).  ``callback``, when set, is invoked by
    :meth:`EventLoop.dispatch` with the event.
    """

    __slots__ = ("time_ns", "seq", "kind", "actor", "data", "callback", "cancelled")

    def __init__(
        self,
        time_ns: int,
        seq: int,
        kind: EventKind,
        actor: int,
        data: Any = None,
        callback: "Callable[[Event], None] | None" = None,
    ) -> None:
        self.time_ns = time_ns
        self.seq = seq
        self.kind = kind
        self.actor = actor
        self.data = data
        self.callback = callback
        self.cancelled = False

    def trace_entry(self) -> tuple[int, str, int]:
        """The event's canonical trace form: ``(time_ns, kind, actor)``."""
        return (self.time_ns, self.kind.name, self.actor)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event({self.kind.name} t={self.time_ns} actor={self.actor}{flag})"


class EventLoop:
    """A deterministic discrete-event scheduler.

    One heap, one sequence counter; every pop advances :attr:`now_ns`
    monotonically over scheduled events.  The loop does not own a
    dispatch table — the driver (the interpreter) pops events and
    dispatches on ``kind``, or attaches per-event callbacks for
    subsystems that manage their own delivery (network queueing).

    Set ``keep_trace=True`` to accumulate the ``(time_ns, kind, actor)``
    trace of every dispatched *and* recorded event — the audit log the
    determinism tests compare across runs.
    """

    __slots__ = (
        "_heap",
        "_seq",
        "now_ns",
        "keep_trace",
        "trace",
        "scheduled",
        "popped",
    )

    def __init__(self, *, keep_trace: bool = False) -> None:
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        #: time of the most recently popped event (monotone over pops).
        self.now_ns = 0
        self.keep_trace = keep_trace
        #: dispatched/recorded events as ``(time_ns, kind, actor)`` tuples.
        self.trace: list[tuple[int, str, int]] = []
        self.scheduled = 0
        self.popped = 0

    # ------------------------------------------------------------------

    def schedule(
        self,
        kind: EventKind,
        time_ns: int,
        actor: int = -1,
        data: Any = None,
        callback: "Callable[[Event], None] | None" = None,
    ) -> Event:
        """Queue an event; returns it (keep the handle to :meth:`cancel`)."""
        if time_ns < 0:
            raise ValueError(f"cannot schedule an event at negative time {time_ns}")
        event = Event(int(time_ns), self._seq, kind, actor, data, callback)
        self._seq += 1
        self.scheduled += 1
        heapq.heappush(self._heap, (event.time_ns, event.seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Lazily cancel a scheduled event (skipped at pop time)."""
        event.cancelled = True

    def record(self, kind: EventKind, time_ns: int, actor: int = -1) -> None:
        """Append an already-dispatched event straight to the trace.

        Used by components that resolve their timing synchronously
        inside a segment (in-segment timer fires, instantaneous message
        delivery) so the audit trail stays complete without paying heap
        traffic on the hot path.  Draws no ``seq`` and counts toward
        neither ``scheduled`` nor ``popped``; its trace position is the
        order of the call.  No-op unless ``keep_trace`` is set.
        """
        if self.keep_trace:
            self.trace.append((int(time_ns), kind.name, actor))

    def pop(self) -> Event | None:
        """Remove and return the next event, or None when idle.

        Cancelled events are dropped silently.  ``now_ns`` snaps to the
        popped event's time; scheduling an event earlier than ``now_ns``
        is legal (per-thread clocks are only loosely coupled) — it
        simply pops next.
        """
        heap = self._heap
        while heap:
            _, _, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            if event.time_ns > self.now_ns:
                self.now_ns = event.time_ns
            self.popped += 1
            if self.keep_trace:
                self.trace.append(event.trace_entry())
            return event
        return None

    def dispatch(self, event: Event) -> None:
        """Run an event's callback, if any (drivers call this for event
        kinds they do not handle themselves)."""
        if event.callback is not None:
            event.callback(event)

    def run_until_idle(self) -> int:
        """Pop and dispatch callback events until the heap drains;
        returns the number of events processed.  Only suitable for
        self-contained loops where every event carries a callback
        (e.g. draining queued message deliveries)."""
        n = 0
        while True:
            event = self.pop()
            if event is None:
                return n
            self.dispatch(event)
            n += 1

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _, _, e in self._heap if not e.cancelled)

    def __bool__(self) -> bool:
        return any(not e.cancelled for _, _, e in self._heap)

    def peek_time_ns(self) -> int | None:
        """Time of the next live event, or None when idle."""
        heap = self._heap
        while heap:
            if heap[0][2].cancelled:
                heapq.heappop(heap)
                continue
            return heap[0][0]
        return None

    def pending(self) -> Iterator[Event]:
        """Iterate live scheduled events in heap (not sorted) order."""
        return (e for _, _, e in self._heap if not e.cancelled)
