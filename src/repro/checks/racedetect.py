"""Happens-before data race detector for the GOS at interval grain
(``djvm.attach(RaceDetector(...))``).

The sanitizer (:mod:`repro.checks.sanitizer`) validates *protocol*
invariants — a workload whose application-level sharing is completely
unsynchronized still passes SAN001–SAN007.  This module closes that gap
with a vector-clock happens-before analysis at object granularity (the
granularity the whole runtime operates at, and the one DJXPerf-style
object-centric profiling argues is the right level for managed
runtimes): two intervals of different threads race on a GOS object when
one writes it, the other touches it, and no chain of synchronization
edges orders them.

Happens-before edges tracked
----------------------------

========================  ==================================================
program order             a thread's intervals are ordered by its own
                          clock entry (per-thread epoch ``(tid, clock)``)
release -> acquire        ``DistributedLock``: the releaser's vector clock
                          is stored on the lock; the next grantee joins it
barrier release           a ``Barrier`` episode joins *all* participants'
                          clocks and restarts each with a fresh epoch —
                          barriers are total synchronization points
diff propagation          an HLRC write notice carries its publisher's
                          vector clock; applying notices at a node joins
                          them into the node's clock and into the applying
                          thread (the simulated data flow: once a diff is
                          applied, later readers observe its effects)
========================  ==================================================

The diff-propagation edge is deliberately *coherence-conservative*: HLRC
applies every pending notice under any acquire, so the detector orders a
write under lock A before a later acquire of lock B that applied its
notice.  That mirrors what the simulated memory actually does (the diff
is visible), trading a little detection strength for zero false
positives on protocol-ordered data.  Truly unsynchronized sharing never
publishes a notice between the accesses, so real races are unaffected.

Every edge sits at a sync point, and an interval closes at every
acquire, release, barrier and thread end, so a thread's clock cannot
move inside an interval.  One check per closing interval therefore sees
what a per-access check would (Perković & Keleher, OSDI'96: compare the
read and write sets of concurrent intervals of a lazy-release-consistent
DSM).  At close, with the thread's clock then, the interval's
``written`` ids are checked against every other thread's last interval
that wrote or touched them, and its ``touched`` ids against every other
thread's last interval that wrote them; an entry whose epoch the clock
does not cover is a race.  A thread's epochs only grow, so its last
entry per object is uncovered whenever any earlier one is: the last
entry finds every racing (object, thread pair, kind).

Modes
-----

* **online** — ``RaceDetector(raise_on_race=True)`` raises a structured
  :class:`DataRaceError` at the close that finds the first race; a plain
  ``RaceDetector()`` collects :class:`RaceReport`\\ s in ``reports``
  instead.
* **offline** — ``RaceDetector(detect=False, keep_trace=True)`` only
  records the compact race-relevant event trace (``trace``, the
  serialised form of the protocol-event stream); :func:`replay_trace`
  re-runs the analysis over a recorded trace without re-executing the
  workload and produces identical reports.

Like the sanitizer, the detector is a
:class:`~repro.dsm.observer.ProtocolObserver`: it observes, never
advances simulated clocks, so a race-checked run is byte-identical to a
plain one.  It reads only interval closes and sync points, so a
race-checked run keeps the one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dsm.observer import ProtocolObserver

__all__ = [
    "AccessSite",
    "RaceReport",
    "DataRaceError",
    "RaceDetector",
    "replay_trace",
    "TR_CLOSE",
    "TR_ACQUIRE",
    "TR_RELEASE",
    "TR_BARRIER",
    "TR_NOTICE",
    "TR_APPLY",
]

#: trace op codes (first field after time_ns in a trace tuple).
TR_CLOSE = 0  # (end_ns, TR_CLOSE, tid, interval_id, start_ns, touched, written)
TR_ACQUIRE = 1  # (t, TR_ACQUIRE, tid, lock_id)
TR_RELEASE = 2  # (t, TR_RELEASE, tid, lock_id)
TR_BARRIER = 3  # (t, TR_BARRIER, barrier_id, waiter_tids)
TR_NOTICE = 4  # (t, TR_NOTICE, tid, obj_id, version)
TR_APPLY = 5  # (t, TR_APPLY, tid, node_id, start, end)


@dataclass(frozen=True, slots=True)
class AccessSite:
    """The interval one side of a race happened in."""

    thread_id: int
    kind: str  # "read" | "write"
    interval_id: int
    #: the interval's open and close instants on its thread's clock.
    start_ns: int
    end_ns: int

    def render(self) -> str:
        """One-line human form of the site."""
        return (
            f"{self.kind} by thread {self.thread_id} "
            f"(interval {self.interval_id}, t={self.start_ns}..{self.end_ns} ns)"
        )


@dataclass(frozen=True, slots=True)
class RaceReport:
    """One detected data race: two conflicting intervals unordered by
    happens-before, with the evidence of *why* they are unordered."""

    obj_id: int
    class_name: str
    #: "write-write" | "write-read" | "read-write" (first kind-second kind).
    kind: str
    first: AccessSite
    second: AccessSite
    #: vector-clock evidence: the first interval's epoch vs. the second
    #: thread's knowledge of that thread when its interval closed.
    evidence: str
    #: last synchronization op each involved thread performed before the
    #: second interval closed (the ops that *failed* to order the pair).
    first_sync: str = "<no sync op yet>"
    second_sync: str = "<no sync op yet>"

    def render(self) -> str:
        """Multi-line human-readable report."""
        return (
            f"data race on object {self.obj_id} ({self.class_name}), {self.kind}:\n"
            f"  first:  {self.first.render()}\n"
            f"          last sync: {self.first_sync}\n"
            f"  second: {self.second.render()}\n"
            f"          last sync: {self.second_sync}\n"
            f"  unordered because {self.evidence}"
        )


class DataRaceError(AssertionError):
    """Raised by the online detector at the close that finds a race."""

    def __init__(self, report: RaceReport) -> None:
        self.report = report
        super().__init__(report.render())


class RaceDetector(ProtocolObserver):
    """Happens-before race analysis over the DJVM's interval closes.

    The same instance serves three roles, selected by construction
    flags: online raising detector (``raise_on_race=True``), online
    collecting detector (reports accumulate in :attr:`reports`), and
    pure trace recorder (``detect=False, keep_trace=True``).  The
    primitive ``record_*`` methods take plain ids so :func:`replay_trace`
    can drive them from a recorded trace; the ``on_*`` methods are the
    thread-facing :class:`ProtocolObserver` overrides the engine calls.
    """

    def __init__(
        self,
        *,
        raise_on_race: bool = False,
        detect: bool = True,
        keep_trace: bool = False,
        resolver: "Callable[[int], str] | None" = None,
    ) -> None:
        self.raise_on_race = raise_on_race
        self.detect = detect
        self.keep_trace = keep_trace
        #: obj_id -> class name, for reports (defaults to the bound
        #: engine's GOS, see :meth:`bind`).
        self._resolver = resolver
        #: detected races (collect mode; raise mode stops at the first).
        self.reports: list[RaceReport] = []
        #: recorded event trace (``keep_trace=True`` only).
        self.trace: list[tuple] = []
        #: thread_id -> vector clock (dict tid -> clock).
        self._vc: dict[int, dict[int, int]] = {}
        #: lock_id -> releaser's clock snapshot at last release.
        self._lock_vc: dict[int, dict[int, int]] = {}
        #: node_id -> clock accumulated from notices applied at the node.
        self._node_vc: dict[int, dict[int, int]] = {}
        #: publisher clock snapshot per write notice, parallel to the
        #: HLRC global notice log (index-aligned).
        self._notice_vc: list[dict[int, int]] = []
        #: obj_id -> tid -> (epoch, interval id, start_ns, end_ns) of that
        #: thread's last closed interval that wrote / touched the object.
        self._writes: dict[int, dict[int, tuple]] = {}
        self._touches: dict[int, dict[int, tuple]] = {}
        #: last sync-op description per thread (report evidence).
        self._last_sync: dict[int, str] = {}
        #: (obj_id, first_tid, second_tid, kind) already reported.
        self._reported: set[tuple[int, int, int, str]] = set()
        #: interval closes race-checked.
        self.intervals_checked = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def bind(self, hlrc) -> None:
        if self._resolver is None:
            gos = hlrc.gos
            self._resolver = lambda obj_id: gos.get(obj_id).jclass.name

    def _class_of(self, obj_id: int) -> str:
        if self._resolver is None:
            return "<unresolved class>"
        return self._resolver(obj_id)

    def _clock_of(self, tid: int) -> dict[int, int]:
        vc = self._vc.get(tid)
        if vc is None:
            vc = self._vc[tid] = {tid: 1}
        return vc

    @staticmethod
    def _join(into: dict[int, int], other: dict[int, int]) -> None:
        for t, c in other.items():  # insertion-ordered source, commutative max
            if into.get(t, 0) < c:
                into[t] = c

    # ------------------------------------------------------------------
    # race reporting
    # ------------------------------------------------------------------

    def _race(
        self, obj_id: int, kind: str, first_tid: int, first: tuple, second: AccessSite
    ) -> None:
        key = (obj_id, first_tid, second.thread_id, kind)
        if key in self._reported:
            return
        self._reported.add(key)
        epoch, interval_id, start_ns, end_ns = first
        known = self._vc[second.thread_id].get(first_tid, 0)
        report = RaceReport(
            obj_id=obj_id,
            class_name=self._class_of(obj_id),
            kind=kind,
            first=AccessSite(first_tid, kind.split("-")[0], interval_id, start_ns, end_ns),
            second=second,
            evidence=(
                f"thread {first_tid}'s interval has epoch {epoch}@T{first_tid} but "
                f"thread {second.thread_id}'s vector clock only covers T{first_tid} "
                f"up to {known} — no release->acquire, barrier, or "
                "diff-propagation chain connects the two intervals"
            ),
            first_sync=self._last_sync.get(first_tid, "<no sync op yet>"),
            second_sync=self._last_sync.get(second.thread_id, "<no sync op yet>"),
        )
        self.reports.append(report)
        if self.raise_on_race:
            raise DataRaceError(report)

    # ------------------------------------------------------------------
    # primitive event stream (shared by online hooks and replay)
    # ------------------------------------------------------------------

    def record_close(
        self, end_ns: int, tid: int, interval_id: int, start_ns: int, touched, written
    ) -> None:
        """``tid`` closed an interval that touched the ids ``touched``
        and wrote ``written`` (both ascending): check it against every
        other thread's last interval per object, then become this
        thread's last interval for those objects."""
        if self.keep_trace:
            self.trace.append((end_ns, TR_CLOSE, tid, interval_id, start_ns, touched, written))
        if not self.detect:
            return
        self.intervals_checked += 1
        vc = self._clock_of(tid)
        entry = (vc[tid], interval_id, start_ns, end_ns)
        reader = AccessSite(tid, "read", interval_id, start_ns, end_ns)
        writer = AccessSite(tid, "write", interval_id, start_ns, end_ns)
        writes, touches = self._writes, self._touches
        is_written = set(written).__contains__
        for obj_id in touched:
            wrote = is_written(obj_id)
            last_writes = writes.get(obj_id)
            if last_writes is not None:
                for u, other in last_writes.items():  # insertion-ordered dict
                    if u != tid and other[0] > vc.get(u, 0):
                        if wrote:
                            self._race(obj_id, "write-write", u, other, writer)
                        self._race(obj_id, "write-read", u, other, reader)
            last_touches = touches.get(obj_id)
            if last_touches is None:
                last_touches = touches[obj_id] = {}
            if wrote:
                for u, other in last_touches.items():
                    if u != tid and other[0] > vc.get(u, 0):
                        self._race(obj_id, "read-write", u, other, writer)
                if last_writes is None:
                    last_writes = writes[obj_id] = {}
                last_writes[tid] = entry
            last_touches[tid] = entry

    def record_acquire(self, time_ns: int, tid: int, lock_id: int) -> None:
        """Lock grant to ``tid``: join the lock's release clock."""
        if self.keep_trace:
            self.trace.append((time_ns, TR_ACQUIRE, tid, lock_id))
        self._last_sync[tid] = f"acquire(lock {lock_id}) at t={time_ns} ns"
        if not self.detect:
            return
        released = self._lock_vc.get(lock_id)
        if released is not None:
            self._join(self._clock_of(tid), released)

    def record_release(self, time_ns: int, tid: int, lock_id: int) -> None:
        """Lock release by ``tid``: publish its clock on the lock."""
        if self.keep_trace:
            self.trace.append((time_ns, TR_RELEASE, tid, lock_id))
        self._last_sync[tid] = f"release(lock {lock_id}) at t={time_ns} ns"
        if not self.detect:
            return
        vc = self._clock_of(tid)
        self._lock_vc[lock_id] = dict(vc)
        vc[tid] += 1

    def record_barrier(self, time_ns: int, barrier_id: int, waiters: tuple[int, ...]) -> None:
        """Barrier episode release: total synchronization of ``waiters``."""
        if self.keep_trace:
            self.trace.append((time_ns, TR_BARRIER, barrier_id, tuple(waiters)))
        for tid in waiters:
            self._last_sync[tid] = f"barrier({barrier_id}) release at t={time_ns} ns"
        if not self.detect:
            return
        joined: dict[int, int] = {}
        for tid in waiters:
            self._join(joined, self._clock_of(tid))
        for tid in waiters:
            vc = dict(joined)
            vc[tid] = joined.get(tid, 0) + 1
            self._vc[tid] = vc

    def record_notice(self, time_ns: int, tid: int, obj_id: int, version: int) -> None:
        """Write-notice published by ``tid``: snapshot its clock on the
        notice (index-aligned with the HLRC global notice log)."""
        if self.keep_trace:
            self.trace.append((time_ns, TR_NOTICE, tid, obj_id, version))
        if not self.detect:
            return
        self._notice_vc.append(dict(self._clock_of(tid)))

    def record_apply(self, time_ns: int, tid: int, node_id: int, start: int, end: int) -> None:
        """Notices ``[start, end)`` applied at ``node_id`` on behalf of
        ``tid``: diff-propagation edges publisher -> node -> thread."""
        if self.keep_trace:
            self.trace.append((time_ns, TR_APPLY, tid, node_id, start, end))
        if not self.detect:
            return
        node_vc = self._node_vc.get(node_id)
        if node_vc is None:
            node_vc = self._node_vc[node_id] = {}
        for i in range(start, min(end, len(self._notice_vc))):
            self._join(node_vc, self._notice_vc[i])
        if node_vc:
            self._join(self._clock_of(tid), node_vc)

    # ------------------------------------------------------------------
    # ProtocolObserver overrides (called by the HLRC engine)
    # ------------------------------------------------------------------

    def on_interval_close(self, thread, interval) -> None:
        """``thread`` closed ``interval``: its notices are out, and its
        clock is the one every access of the interval ran under."""
        self.record_close(
            interval.end_ns,
            thread.thread_id,
            interval.interval_id,
            interval.start_ns,
            tuple(sorted(interval.touched)),
            tuple(sorted(interval.written)),
        )

    def on_lock_acquire(self, thread, lock_id: int) -> None:
        """A lock grant completed for ``thread``: the release->acquire
        edge joins the last releaser's clock."""
        self.record_acquire(thread.clock._now_ns, thread.thread_id, lock_id)

    def on_lock_release(self, thread, lock_id: int) -> None:
        """``thread`` released a lock (its interval already closed, so
        the closed interval keeps the pre-increment epoch)."""
        self.record_release(thread.clock._now_ns, thread.thread_id, lock_id)

    def on_barrier_release(
        self, barrier_id: int, parties: int, waiters, release_ns: int, threads_by_id
    ) -> None:
        """A barrier episode completed, waking ``waiters``: join every
        participant's clock (per-waiter diff-propagation joins already
        ran via :meth:`on_apply_notices`).  The waiters' new intervals
        opened before this call, which is why a clock is read at close."""
        self.record_barrier(release_ns, barrier_id, tuple(waiters))

    def on_notice(self, thread, obj_id: int, version: int) -> None:
        """``thread`` published a write notice (at its interval's close,
        or at a migration)."""
        self.record_notice(thread.clock._now_ns, thread.thread_id, obj_id, version)

    def on_apply_notices(self, thread, start: int, end: int) -> None:
        """``thread`` applied the global notices ``[start, end)`` at its
        node (called even when the range is empty: the node clock still
        flows into the thread)."""
        self.record_apply(
            thread.clock._now_ns, thread.thread_id, thread.node_id, start, end
        )


def replay_trace(
    trace,
    *,
    raise_on_race: bool = False,
    resolver: "Callable[[int], str] | None" = None,
) -> RaceDetector:
    """Re-run the happens-before analysis over a recorded event trace
    (a ``RaceDetector(detect=False, keep_trace=True)``'s ``trace``)
    without re-executing the workload.

    Returns the detector; its ``reports`` hold the races found, in the
    same order (and with the same sites) the online detector would have
    produced, because the trace preserves the detector's total
    observation order.
    """
    det = RaceDetector(raise_on_race=raise_on_race, resolver=resolver)
    record = {
        TR_CLOSE: det.record_close,
        TR_ACQUIRE: det.record_acquire,
        TR_RELEASE: det.record_release,
        TR_BARRIER: det.record_barrier,
        TR_NOTICE: det.record_notice,
        TR_APPLY: det.record_apply,
    }
    for entry in trace:
        replay = record.get(entry[1])
        if replay is None:
            raise ValueError(f"unknown race-trace op code {entry[1]!r} in {entry!r}")
        replay(entry[0], *entry[2:])
    return det
