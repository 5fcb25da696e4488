"""Runtime HLRC protocol sanitizer (``djvm.attach(ProtocolSanitizer())``).

JESSICA2-style DSM runtimes were debugged with protocol assertion
layers exactly like this one: an opt-in checker that rides the protocol
engine's control flow and validates the state-machine invariants the
paper's profiling scheme depends on (Lam, Luo & Wang, IPDPS 2010,
Section II; HLRC lineage: Zhou, Iftode & Li, OSDI'96).  When an
invariant breaks, a structured :class:`SanitizerViolation` is raised
carrying the violation code and the tail of the observed event trace,
so the offending interleaving is in the report — not reconstructed from
logs after the fact.

Invariant catalog
-----------------

========  ==============================================================
SAN001    interval discipline: exactly one open interval per thread,
          ids strictly increasing, close matches open, end >= start
SAN002    at-most-once OAL logging: within one (thread, interval) an
          object's false-invalid trap fires — and is logged — at most
          once (paper Section II.A)
SAN003    copy-state legality: home-node copies are HOME and never
          INVALID; cached copies only VALID<->INVALID; an INVALID copy
          must actually be stale (fetched_version < home_version);
          dirty bytes never exceed the object's size
SAN004    barrier accounting: no double arrivals, arrivals never exceed
          parties, a release wakes exactly the arrived party set
SAN005    event-kernel time: the kernel's clock never goes backwards;
          a barrier releases at/after its last arrival
SAN006    sticky-set membership: live sticky candidates at migration
          time are a subset of the ids the thread's intervals touched, and
          every prefetched copy is installed VALID at the target
SAN007    write-notice/version discipline: per-object home versions in
          the notice log are strictly increasing; a flushed interval's
          written set is a subset of its touched set
========  ==============================================================

The sanitizer is a :class:`~repro.dsm.observer.ProtocolObserver`, not a
:class:`~repro.dsm.hlrc.ProtocolHooks` profiler hook: hook fan-out has
a cost model attached (and a single-hook fast path the profiler relies
on), while observer callbacks are free — they observe, never advance
simulated clocks — so a sanitized run produces byte-identical simulated
results, which ``tests/checks`` asserts.  It overrides neither
``on_access`` nor ``on_fault``, so a sanitized run takes the vector
engine's one pass: SAN003 checks each closing interval's touched ids.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.dsm.observer import ProtocolObserver
from repro.dsm.states import HOME, INVALID, VALID, RealState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dsm.hlrc import HomeBasedLRC
    from repro.dsm.intervals import IntervalRecord
    from repro.runtime.migration import MigrationResult
    from repro.runtime.thread import SimThread

#: invariant code -> one-line summary (the catalog the CLI prints).
INVARIANTS: dict[str, str] = {
    "SAN001": "interval open/close discipline per thread",
    "SAN002": "at-most-once OAL logging per (thread, interval, object)",
    "SAN003": "legal copy-state transitions (home/valid/invalid)",
    "SAN004": "barrier party accounting (arrivals == parties == released)",
    "SAN005": "event-kernel time monotonicity",
    "SAN006": "sticky-set membership consistent with access logs",
    "SAN007": "write-notice version discipline",
}


class SanitizerViolation(AssertionError):
    """A protocol invariant broke.  Structured: ``code`` names the
    invariant (see :data:`INVARIANTS`), ``detail`` says what happened,
    and ``trace`` carries the sanitizer's recent observed-event ring
    buffer (newest last) for the offending interleaving."""

    def __init__(self, code: str, detail: str, trace: list[tuple[int, str]] | None = None):
        self.code = code
        self.detail = detail
        self.trace = list(trace or [])
        tail = "\n".join(f"    [{t_ns} ns] {what}" for t_ns, what in self.trace[-12:])
        msg = f"{code} ({INVARIANTS.get(code, 'unknown invariant')}): {detail}"
        if tail:
            msg += f"\n  recent protocol events (newest last):\n{tail}"
        super().__init__(msg)


class ProtocolSanitizer(ProtocolObserver):
    """Observes the protocol engine and raises on invariant violations.

    One instance per DJVM; attach via ``djvm.attach(ProtocolSanitizer())``.
    """

    def __init__(self, *, trace_limit: int = 64) -> None:
        #: ring buffer of observed protocol events: (time_ns, description).
        self.events: deque[tuple[int, str]] = deque(maxlen=trace_limit)
        #: total invariant checks executed (reported by the CLI).
        self.checks_run = 0
        #: violations raised (sticky — a raise propagates, but keep count).
        self.violations = 0
        # SAN001: thread_id -> open interval id; and last closed id.
        self._open: dict[int, int] = {}
        self._last_interval: dict[int, int] = {}
        # SAN002: (thread_id) -> object ids OAL-logged in the open interval.
        self._logged: dict[int, set[int]] = {}
        # SAN004: barrier_id -> {thread_id: arrival_ns}.
        self._arrivals: dict[int, dict[int, int]] = {}
        # SAN005: kernel clock watermark.
        self._kernel_ns = 0
        # SAN007: obj_id -> last notice version seen.
        self._notice_version: dict[int, int] = {}
        # SAN003: thread_id -> ids touched before a migration moved it.
        self._left: dict[int, set[int]] = {}
        #: heap/GOS visibility for the sweep checks (set by :meth:`bind`).
        self._hlrc: HomeBasedLRC | None = None
        #: sticky-set footprinter, when the suite has one (enables
        #: SAN006's membership check at migration time).
        self._footprinter = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def bind(self, hlrc: HomeBasedLRC) -> None:
        self._hlrc = hlrc

    def on_suite_attach(self, suite) -> None:
        self._footprinter = suite.footprinter

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def note(self, time_ns: int, what: str) -> None:
        """Record one observed protocol event into the ring buffer."""
        self.events.append((int(time_ns), what))

    def _fail(self, code: str, detail: str) -> None:
        self.violations += 1
        raise SanitizerViolation(code, detail, list(self.events))

    # ------------------------------------------------------------------
    # SAN001 + SAN007: interval lifecycle
    # ------------------------------------------------------------------

    def on_interval_open(self, thread: SimThread) -> None:
        """HLRC opened an interval for ``thread``."""
        self.checks_run += 1
        tid = thread.thread_id
        iid = thread.current_interval.interval_id
        self.note(thread.clock.now_ns, f"interval_open t{tid} i{iid}")
        if tid in self._open:
            self._fail(
                "SAN001",
                f"thread {tid} opened interval {iid} while interval "
                f"{self._open[tid]} is still open (intervals cannot nest)",
            )
        last = self._last_interval.get(tid, 0)
        if iid <= last:
            self._fail(
                "SAN001",
                f"thread {tid} opened interval {iid}, but interval ids must "
                f"strictly increase (last closed: {last})",
            )
        self._open[tid] = iid
        self._logged[tid] = set()

    def on_interval_close(self, thread: SimThread, interval: IntervalRecord) -> None:
        """HLRC closed ``interval`` (diffs flushed, notices published)."""
        self.checks_run += 1
        tid = thread.thread_id
        self.note(
            thread.clock.now_ns,
            f"interval_close t{tid} i{interval.interval_id} ({interval.close_reason})",
        )
        open_id = self._open.pop(tid, None)
        if open_id is None:
            self._fail(
                "SAN001",
                f"thread {tid} closed interval {interval.interval_id} with no "
                "interval open",
            )
        if open_id != interval.interval_id:
            self._fail(
                "SAN001",
                f"thread {tid} closed interval {interval.interval_id} but "
                f"interval {open_id} was the one open",
            )
        if interval.end_ns < interval.start_ns:
            self._fail(
                "SAN001",
                f"thread {tid} interval {interval.interval_id} closed at "
                f"{interval.end_ns} ns, before its open at {interval.start_ns} ns",
            )
        # SAN007: every written object must be in the touched set (the
        # write that dirtied it is an access).
        touched = interval.touched
        missing = [o for o in interval.written if o not in touched]
        if missing:
            self._fail(
                "SAN007",
                f"thread {tid} interval {interval.interval_id} written set "
                f"contains objects absent from its touched set: {sorted(missing)}",
            )
        # SAN003: no copy state changes inside an interval but by the
        # thread's own accesses, so each id it touched must have a VALID
        # or HOME copy here, unless touched before a migration moved it.
        if touched:
            node_id = thread.node_id
            left = self._left.pop(tid, ())
            ids = np.array(sorted(touched), dtype=np.intp)
            current = self._hlrc.heaps[node_id].state_np[ids] >= VALID
            if not current.all():
                stray = [o for o in ids[~current].tolist() if o not in left]
                if stray:
                    copy = self._hlrc.copy(node_id, stray[0])
                    self._fail(
                        "SAN003",
                        f"thread {tid} touched obj {stray[0]} in interval "
                        f"{interval.interval_id}, but node {node_id} holds it "
                        f"{'absent' if copy is None else copy.real_state.name} at close",
                    )
                ids = ids[current]
            self._check_copies(node_id, ids)
        self.checks_run += len(touched)
        self._last_interval[tid] = interval.interval_id
        self._logged.pop(tid, None)

    def on_run_end(self, threads) -> None:
        """All threads finished: no interval may remain open, and every
        heap must pass the copy-state sweep."""
        self.checks_run += 1
        if self._open:
            self._fail(
                "SAN001",
                f"run ended with intervals still open: {dict(sorted(self._open.items()))}",
            )
        self.sweep_heaps()

    # ------------------------------------------------------------------
    # SAN002: at-most-once OAL logging
    # ------------------------------------------------------------------

    def on_oal_log(self, thread: SimThread, interval_id: int, obj_id: int) -> None:
        """The access profiler logged ``obj_id`` into the thread's OAL.

        The false-invalid tag is cancelled by the first trapping access,
        so a second log of the same object in the same interval means
        the overlay state machine (valid -> false-invalid -> logged)
        was traversed twice — the at-most-once property is broken.
        """
        self.checks_run += 1
        tid = thread.thread_id
        self.note(thread.clock.now_ns, f"oal_log t{tid} i{interval_id} obj{obj_id}")
        open_id = self._open.get(tid)
        if open_id is not None and interval_id != open_id:
            self._fail(
                "SAN002",
                f"thread {tid} logged obj {obj_id} into interval {interval_id} "
                f"but interval {open_id} is the one open",
            )
        logged = self._logged.setdefault(tid, set())
        if obj_id in logged:
            self._fail(
                "SAN002",
                f"thread {tid} OAL-logged obj {obj_id} twice in interval "
                f"{interval_id}; false-invalid must trap at most once per "
                "(interval, object)",
            )
        logged.add(obj_id)

    # ------------------------------------------------------------------
    # SAN003: copy-state legality
    # ------------------------------------------------------------------

    def _check_copies(self, node_id: int, ids: np.ndarray, *, sweep: bool = False) -> None:
        """SAN003 over node ``node_id``'s copies of ``ids`` (an ``intp``
        array of ids it holds), one gather per column; the first id with
        a violation is then checked alone (:meth:`_check_copy`), which
        names it."""
        hlrc = self._hlrc
        heap = hlrc.heaps[node_id]
        gos = hlrc.gos
        id_list = ids.tolist()
        state = heap.state_np[ids]
        fetched = heap.fetched_np[ids]
        home = hlrc.home_version_np[ids]
        homed_here = gos.home_np[ids] == node_id
        bad = ((state == HOME) != homed_here) | (fetched > home)
        if sweep:
            bad |= (state == INVALID) & (fetched >= home)
        if heap.twins:
            twins = heap.twins
            bad |= np.array(
                [o in twins and twins[o][0] > gos.size_bytes(o) for o in id_list], dtype=bool
            )
        if bad.any():
            self._check_copy(node_id, id_list[int(bad.argmax())], sweep)

    def _check_copy(self, node_id: int, obj_id: int, sweep: bool) -> None:
        """SAN003 over one copy, read through the accessor: a copy is
        HOME iff the node is the object's home, its fetched version is
        no newer than the home's, its dirty bytes fit the object, and —
        on a ``sweep`` — an INVALID copy is stale."""
        hlrc = self._hlrc
        obj = hlrc.gos.get(obj_id)
        copy = hlrc.copy(node_id, obj_id)
        home_version = hlrc.home_version[obj_id]
        if obj.home_node == node_id and not copy.is_home:
            self._fail(
                "SAN003",
                f"node {node_id} holds obj {obj_id} in state "
                f"{copy.real_state.name}, but the node is the object's home "
                "(home copies are always HOME)",
            )
        if obj.home_node != node_id and copy.is_home:
            self._fail(
                "SAN003",
                f"node {node_id} holds obj {obj_id} in state HOME, but the "
                f"object is homed at node {obj.home_node}",
            )
        if copy.fetched_version > home_version:
            self._fail(
                "SAN003",
                f"node {node_id} copy of obj {obj_id} claims fetched version "
                f"{copy.fetched_version}, newer than the home's "
                f"{home_version} (versions only move forward at the home)",
            )
        if copy.dirty_bytes > obj.size_bytes:
            self._fail(
                "SAN003",
                f"node {node_id} copy of obj {obj_id} accumulated "
                f"{copy.dirty_bytes} dirty bytes, more than the object's "
                f"{obj.size_bytes}-byte payload",
            )
        if sweep and copy.real_state is RealState.INVALID and copy.fetched_version >= home_version:
            self._fail(
                "SAN003",
                f"node {node_id} copy of obj {obj_id} is INVALID but "
                f"up to date (fetched {copy.fetched_version} >= home "
                f"{home_version}): spurious invalidation",
            )

    def sweep_heaps(self) -> int:
        """Full copy-state sweep across every node's heap (run from
        :meth:`on_barrier_release` and :meth:`on_run_end`); returns the
        number of copies checked."""
        hlrc = self._hlrc
        if hlrc is None:
            return 0
        checked = 0
        for node_id in sorted(hlrc.heaps):
            ids = np.flatnonzero(hlrc.heaps[node_id].state_np)
            self._check_copies(node_id, ids, sweep=True)
            checked += len(ids)
        self.checks_run += checked
        return checked

    # ------------------------------------------------------------------
    # SAN004 + SAN005: barrier accounting
    # ------------------------------------------------------------------

    def on_barrier_arrive(self, thread: SimThread, barrier_id: int, parties: int) -> None:
        """A thread registered at a barrier."""
        self.checks_run += 1
        thread_id = thread.thread_id
        now_ns = thread.clock.now_ns
        self.note(now_ns, f"barrier_arrive b{barrier_id} t{thread_id}")
        arrivals = self._arrivals.setdefault(barrier_id, {})
        if thread_id in arrivals:
            self._fail(
                "SAN004",
                f"thread {thread_id} arrived twice at barrier {barrier_id} in "
                "one episode",
            )
        arrivals[thread_id] = now_ns
        if len(arrivals) > parties:
            self._fail(
                "SAN004",
                f"barrier {barrier_id} collected {len(arrivals)} arrivals for "
                f"{parties} parties",
            )

    def on_barrier_release(
        self,
        barrier_id: int,
        parties: int,
        waiters: list[int],
        release_ns: int,
        threads_by_id,
    ) -> None:
        """A barrier episode released ``waiters`` at ``release_ns``."""
        self.checks_run += 1
        self.note(release_ns, f"barrier_release b{barrier_id} -> {len(waiters)} threads")
        arrivals = self._arrivals.pop(barrier_id, {})
        if len(waiters) != parties:
            self._fail(
                "SAN004",
                f"barrier {barrier_id} released {len(waiters)} threads for "
                f"{parties} parties",
            )
        if len(set(waiters)) != len(waiters):
            self._fail(
                "SAN004",
                f"barrier {barrier_id} released a thread twice: {waiters}",
            )
        if set(waiters) != set(arrivals):
            self._fail(
                "SAN004",
                f"barrier {barrier_id} released {sorted(set(waiters))} but "
                f"{sorted(arrivals)} arrived (over- or under-release)",
            )
        if arrivals and release_ns < max(arrivals.values()):
            self._fail(
                "SAN005",
                f"barrier {barrier_id} released at {release_ns} ns, before its "
                f"last arrival at {max(arrivals.values())} ns",
            )
        self.sweep_heaps()

    # ------------------------------------------------------------------
    # SAN005: event-kernel monotonicity
    # ------------------------------------------------------------------

    def on_event_pop(self, kernel_now_ns: int, event) -> None:
        """The event kernel popped ``event``; its clock must not rewind."""
        self.checks_run += 1
        if event is not None:
            self.note(event.time_ns, f"event {event.kind.name} actor={event.actor}")
        if kernel_now_ns < self._kernel_ns:
            self._fail(
                "SAN005",
                f"event kernel clock went backwards: {self._kernel_ns} ns -> "
                f"{kernel_now_ns} ns",
            )
        self._kernel_ns = kernel_now_ns

    # ------------------------------------------------------------------
    # SAN006: sticky-set membership at migration
    # ------------------------------------------------------------------

    def on_migration(self, thread: SimThread, result: MigrationResult, begin_ns: int) -> None:
        """A migration completed; validate sticky/prefetch consistency."""
        self.checks_run += 1
        self.note(
            thread.clock.now_ns,
            f"migrate t{thread.thread_id} n{result.from_node}->n{result.to_node} "
            f"prefetch={result.prefetched_objects}",
        )
        self._left[thread.thread_id] = set(thread.current_interval.touched)
        fp = self._footprinter
        if fp is not None:
            accessed = set(thread.current_interval.touched)
            accessed |= fp.tracked_ever.get(thread.thread_id, set())
            candidates = fp.live_sticky_candidates(thread)
            stray = [o for o in candidates if o not in accessed]
            if stray:
                self._fail(
                    "SAN006",
                    f"thread {thread.thread_id} sticky-set candidates "
                    f"{sorted(stray)} never appear in its pre-migration access "
                    "logs (sticky membership must derive from observed accesses)",
                )
        hlrc = self._hlrc
        if hlrc is not None:
            for obj_id in result.prefetched_ids:
                copy = hlrc.copy(result.to_node, obj_id)
                if copy is None or copy.real_state is not RealState.VALID:
                    state = "absent" if copy is None else copy.real_state.name
                    self._fail(
                        "SAN006",
                        f"prefetched obj {obj_id} is {state} at target node "
                        f"{result.to_node}; the migration bundle must install "
                        "VALID copies",
                    )

    # ------------------------------------------------------------------
    # SAN007: write-notice versions
    # ------------------------------------------------------------------

    def on_notice(self, thread: SimThread, obj_id: int, version: int) -> None:
        """The home published a write notice for ``obj_id``."""
        self.checks_run += 1
        last = self._notice_version.get(obj_id, 0)
        if version <= last:
            self._fail(
                "SAN007",
                f"write notice for obj {obj_id} carries version {version}, not "
                f"newer than the previously published {last} (per-object "
                "versions must strictly increase)",
            )
        self._notice_version[obj_id] = version
