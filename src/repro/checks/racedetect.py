"""FastTrack-style happens-before data race detector for the GOS
(``djvm.attach(RaceDetector(...))``).

The sanitizer (:mod:`repro.checks.sanitizer`) validates *protocol*
invariants — a workload whose application-level sharing is completely
unsynchronized still passes SAN001–SAN007.  This module closes that gap
with a vector-clock happens-before analysis at object granularity (the
granularity the whole runtime operates at, and the one DJXPerf-style
object-centric profiling argues is the right level for managed
runtimes): two accesses to one GOS object, at least one a write, by two
different threads, race unless a chain of synchronization edges orders
them.

Happens-before edges tracked
----------------------------

========================  ==================================================
program order             every op of one thread is ordered by its issue
                          sequence (per-thread epoch ``(tid, clock)``)
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

Detection state per object is classic FastTrack (Flanagan & Freund,
PLDI'09): a last-write *epoch*, and a last-read epoch that escalates to
a read vector clock only while reads are concurrent — O(1) per access
on the overwhelmingly common same-epoch paths.

Modes
-----

* **online** — ``RaceDetector(raise_on_race=True)`` raises a structured
  :class:`DataRaceError` at the second racing access; a plain
  ``RaceDetector()`` collects :class:`RaceReport`\\ s in ``reports``
  instead.
* **offline** — ``RaceDetector(detect=False, keep_trace=True)`` only
  records the compact race-relevant operation trace (``trace``, the
  serialised form of the protocol-event stream); :func:`replay_trace`
  re-runs the analysis over a recorded trace without re-executing the
  workload and produces identical reports.

Like the sanitizer, the detector is a
:class:`~repro.dsm.observer.ProtocolObserver`: it observes, never
advances simulated clocks, so a race-checked run is byte-identical to a
plain one.  It overrides ``on_access`` (the vector clocks need every
access), so a race-checked run stays on the scalar loop.
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
    "TR_ACCESS",
    "TR_ACQUIRE",
    "TR_RELEASE",
    "TR_BARRIER",
    "TR_NOTICE",
    "TR_APPLY",
]

#: trace op codes (first field after time_ns in a trace tuple).
TR_ACCESS = 0  # (t, TR_ACCESS, tid, obj_id, is_write, interval_id)
TR_ACQUIRE = 1  # (t, TR_ACQUIRE, tid, lock_id)
TR_RELEASE = 2  # (t, TR_RELEASE, tid, lock_id)
TR_BARRIER = 3  # (t, TR_BARRIER, barrier_id, waiter_tids)
TR_NOTICE = 4  # (t, TR_NOTICE, tid, obj_id, version)
TR_APPLY = 5  # (t, TR_APPLY, tid, node_id, start, end)


@dataclass(frozen=True, slots=True)
class AccessSite:
    """Where one racing access happened in the simulated execution."""

    thread_id: int
    kind: str  # "read" | "write"
    interval_id: int
    time_ns: int
    #: detector-global operation sequence number (total order of
    #: observed operations — stable across online/offline analysis).
    seq: int

    def render(self) -> str:
        """One-line human form of the site."""
        return (
            f"{self.kind} by thread {self.thread_id} "
            f"(interval {self.interval_id}, t={self.time_ns} ns, op #{self.seq})"
        )


@dataclass(frozen=True, slots=True)
class RaceReport:
    """One detected data race: two conflicting accesses unordered by
    happens-before, with the evidence of *why* they are unordered."""

    obj_id: int
    class_name: str
    #: "write-write" | "write-read" | "read-write" (first kind-second kind).
    kind: str
    first: AccessSite
    second: AccessSite
    #: vector-clock evidence: the first access's epoch vs. the second
    #: thread's knowledge of that thread at the moment of the access.
    evidence: str
    #: last synchronization op each involved thread performed before the
    #: racing access (the ops that *failed* to order the pair).
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
    """Raised by the online detector at the second racing access."""

    def __init__(self, report: RaceReport) -> None:
        self.report = report
        super().__init__(report.render())


class _ObjState:
    """FastTrack per-object metadata: last-write epoch + adaptive
    last-read representation (epoch, escalated to a vector clock only
    while reads are concurrent)."""

    __slots__ = (
        "write_tid",
        "write_clk",
        "write_site",
        "read_tid",
        "read_clk",
        "read_vc",
        "read_sites",
    )

    def __init__(self) -> None:
        self.write_tid: int | None = None
        self.write_clk = 0
        self.write_site: AccessSite | None = None
        self.read_tid: int | None = None
        self.read_clk = 0
        #: tid -> clock; non-None only while reads are concurrent.
        self.read_vc: dict[int, int] | None = None
        #: tid -> site of that thread's last tracked read (reporting only).
        self.read_sites: dict[int, AccessSite] = {}


class RaceDetector(ProtocolObserver):
    """Happens-before race analysis over the DJVM's operation stream.

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
        #: recorded operation trace (``keep_trace=True`` only).
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
        #: per-object FastTrack metadata.
        self._meta: dict[int, _ObjState] = {}
        #: last sync-op description per thread (report evidence).
        self._last_sync: dict[int, str] = {}
        #: (obj_id, first_tid, second_tid, kind) already reported.
        self._reported: set[tuple[int, int, int, str]] = set()
        #: total operations observed / accesses race-checked.
        self.ops_observed = 0
        self.accesses_checked = 0

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
        self,
        obj_id: int,
        kind: str,
        first: AccessSite,
        first_clk: int,
        known_clk: int,
        second: AccessSite,
    ) -> None:
        key = (obj_id, first.thread_id, second.thread_id, kind)
        if key in self._reported:
            return
        self._reported.add(key)
        report = RaceReport(
            obj_id=obj_id,
            class_name=self._class_of(obj_id),
            kind=kind,
            first=first,
            second=second,
            evidence=(
                f"thread {first.thread_id}'s {first.kind} has epoch "
                f"{first_clk}@T{first.thread_id} but thread "
                f"{second.thread_id}'s vector clock only covers "
                f"T{first.thread_id} up to {known_clk} — no "
                "release->acquire, barrier, or diff-propagation chain "
                "connects the two accesses"
            ),
            first_sync=self._last_sync.get(first.thread_id, "<no sync op yet>"),
            second_sync=self._last_sync.get(second.thread_id, "<no sync op yet>"),
        )
        self.reports.append(report)
        if self.raise_on_race:
            raise DataRaceError(report)

    # ------------------------------------------------------------------
    # primitive operation stream (shared by online hooks and replay)
    # ------------------------------------------------------------------

    def record_access(
        self, time_ns: int, tid: int, obj_id: int, is_write: bool, interval_id: int
    ) -> None:
        """One GOS access by ``tid``; runs the FastTrack state machine."""
        self.ops_observed += 1
        if self.keep_trace:
            self.trace.append((time_ns, TR_ACCESS, tid, obj_id, is_write, interval_id))
        if not self.detect:
            return
        self.accesses_checked += 1
        vc = self._clock_of(tid)
        clk = vc[tid]
        st = self._meta.get(obj_id)
        if st is None:
            st = self._meta[obj_id] = _ObjState()
        if is_write:
            if st.write_tid == tid and st.write_clk == clk:
                return  # same-epoch write: already checked
            site = AccessSite(tid, "write", interval_id, time_ns, self.ops_observed)
            wt = st.write_tid
            if wt is not None and wt != tid and st.write_clk > vc.get(wt, 0):
                self._race(obj_id, "write-write", st.write_site, st.write_clk, vc.get(wt, 0), site)
            if st.read_vc is not None:
                for rt, rc in st.read_vc.items():  # insertion-ordered dict
                    if rt != tid and rc > vc.get(rt, 0):
                        self._race(
                            obj_id, "read-write", st.read_sites[rt], rc, vc.get(rt, 0), site
                        )
            elif st.read_tid is not None and st.read_tid != tid and st.read_clk > vc.get(st.read_tid, 0):
                self._race(
                    obj_id,
                    "read-write",
                    st.read_sites[st.read_tid],
                    st.read_clk,
                    vc.get(st.read_tid, 0),
                    site,
                )
            # The write dominates: subsequent conflicts need only be
            # checked against it (FastTrack's O(1) steady state).
            st.write_tid, st.write_clk, st.write_site = tid, clk, site
            st.read_tid = None
            st.read_vc = None
            st.read_sites = {}
            return
        # read
        if st.read_tid == tid and st.read_clk == clk:
            return  # same-epoch read
        if st.read_vc is not None and st.read_vc.get(tid) == clk:
            return
        site = AccessSite(tid, "read", interval_id, time_ns, self.ops_observed)
        wt = st.write_tid
        if wt is not None and wt != tid and st.write_clk > vc.get(wt, 0):
            self._race(obj_id, "write-read", st.write_site, st.write_clk, vc.get(wt, 0), site)
        if st.read_vc is not None:
            st.read_vc[tid] = clk
            st.read_sites[tid] = site
        elif (
            st.read_tid is None
            or st.read_tid == tid
            or st.read_clk <= vc.get(st.read_tid, 0)
        ):
            # Previous read epoch happens-before us: collapse to epoch.
            st.read_tid, st.read_clk = tid, clk
            st.read_sites = {tid: site}
        else:
            # Concurrent readers: escalate to a read vector clock.
            st.read_vc = {st.read_tid: st.read_clk, tid: clk}
            st.read_sites[tid] = site
            st.read_tid = None

    def record_acquire(self, time_ns: int, tid: int, lock_id: int) -> None:
        """Lock grant to ``tid``: join the lock's release clock."""
        self.ops_observed += 1
        if self.keep_trace:
            self.trace.append((time_ns, TR_ACQUIRE, tid, lock_id))
        self._last_sync[tid] = f"acquire(lock {lock_id}) at t={time_ns} ns"
        if not self.detect:
            return
        vc = self._clock_of(tid)
        released = self._lock_vc.get(lock_id)
        if released is not None:
            self._join(vc, released)

    def record_release(self, time_ns: int, tid: int, lock_id: int) -> None:
        """Lock release by ``tid``: publish its clock on the lock."""
        self.ops_observed += 1
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
        self.ops_observed += 1
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
        self.ops_observed += 1
        if self.keep_trace:
            self.trace.append((time_ns, TR_NOTICE, tid, obj_id, version))
        if not self.detect:
            return
        self._notice_vc.append(dict(self._clock_of(tid)))

    def record_apply(self, time_ns: int, tid: int, node_id: int, start: int, end: int) -> None:
        """Notices ``[start, end)`` applied at ``node_id`` on behalf of
        ``tid``: diff-propagation edges publisher -> node -> thread."""
        self.ops_observed += 1
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

    def on_access(
        self, thread, obj_id: int, is_write: bool, repeat: int, record, obj, faulted
    ) -> None:
        """One access op: run the FastTrack check."""
        vc = self._vc.get(thread.thread_id)
        if vc is None:
            vc = self._vc[thread.thread_id] = {thread.thread_id: 1}
            # The thread carries its vector clock (introspection only;
            # the detector owns and mutates the mapping in place).
            thread.vc = vc
        self.record_access(
            thread.clock._now_ns,
            thread.thread_id,
            obj_id,
            is_write,
            thread.current_interval.interval_id,
        )

    def on_lock_acquire(self, thread, lock_id: int) -> None:
        """A lock grant completed for ``thread``: the release->acquire
        edge joins the last releaser's clock."""
        self.record_acquire(thread.clock._now_ns, thread.thread_id, lock_id)
        thread.vc = self._vc[thread.thread_id]

    def on_lock_release(self, thread, lock_id: int) -> None:
        """``thread`` released a lock (clock already past the interval
        close, so published notices carry the pre-increment clock)."""
        self.record_release(thread.clock._now_ns, thread.thread_id, lock_id)
        thread.vc = self._vc[thread.thread_id]

    def on_barrier_release(
        self, barrier_id: int, parties: int, waiters, release_ns: int, threads_by_id
    ) -> None:
        """A barrier episode completed, waking ``waiters``: join every
        participant's clock (per-waiter diff-propagation joins already
        ran via :meth:`on_apply_notices`)."""
        self.record_barrier(release_ns, barrier_id, tuple(waiters))
        if self.detect:
            for tid in waiters:
                threads_by_id[tid].vc = self._vc[tid]

    def on_notice(self, thread, obj_id: int, version: int) -> None:
        """``thread`` published a write notice during interval close."""
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
    """Re-run the happens-before analysis over a recorded operation
    trace (a ``RaceDetector(detect=False, keep_trace=True)``'s
    ``trace``) without re-executing the workload.

    Returns the detector; its ``reports`` hold the races found, in the
    same order (and with the same sites) the online detector would have
    produced, because the trace preserves the detector's total
    observation order.
    """
    det = RaceDetector(raise_on_race=raise_on_race, resolver=resolver)
    for entry in trace:
        code = entry[1]
        if code == TR_ACCESS:
            det.record_access(entry[0], entry[2], entry[3], entry[4], entry[5])
        elif code == TR_ACQUIRE:
            det.record_acquire(entry[0], entry[2], entry[3])
        elif code == TR_RELEASE:
            det.record_release(entry[0], entry[2], entry[3])
        elif code == TR_BARRIER:
            det.record_barrier(entry[0], entry[2], entry[3])
        elif code == TR_NOTICE:
            det.record_notice(entry[0], entry[2], entry[3], entry[4])
        elif code == TR_APPLY:
            det.record_apply(entry[0], entry[2], entry[3], entry[4], entry[5])
        else:
            raise ValueError(f"unknown race-trace op code {code!r} in {entry!r}")
    return det
