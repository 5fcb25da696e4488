"""Vectorized access replay: one-pass execution of access runs that
nothing observes beyond their interval first touches and their clock
stops.

The scalar interpreter dispatches every READ/WRITE/COMPUTE op through
Python (one :meth:`~repro.dsm.hlrc.HomeBasedLRC.access` call per op).
For the dominant access streams of real workloads that is almost pure
overhead: inside one execution segment copy state cannot change (write
notices apply only at synchronization), so after an object's *first*
access of a run every later access is a guaranteed hit, and after its
*first* write the twin already exists.

When nothing observes the run's intermediate states except at the
points below — no observer, prefetcher, keyword hook, condition-driven
timer or pending migration (:meth:`HomeBasedLRC.unobserved`; the
interpreter owns the timer and migration half of the gate) — every
simulated cost is an integer sum.
The engine then replays a whole run in one pass over its distinct
objects in first-touch order: each copy is probed once, lazy home
copies are materialized, invalid or missing cache copies are refreshed
and their faults charged in one :meth:`HomeBasedLRC.charge_faults`,
written cache copies get their twin, dirty bytes and writer, and the
clock and CPU buckets move once.  Under profiler hooks the run's first
touches in the current interval (the paper's profiler traps only those)
are then booked in the interval's touched set and handed, with the ids
among them that faulted, to each hook's batch-shaped first-touch entry,
one call per hook.

Two things read the clock mid-run: a re-arming hook's tracking entry at
every access of an id it re-armed (the footprinter's sampled objects),
and a timer whose deadline passes.  For those the pass *walks*: it
places the run's charges at their ops — static costs from
:func:`~repro.runtime.program.walk_lane`, each fault at its object's
first access, each twin at its first write, each first-touch charge at
its first touch — and visits the stops in op order, giving each the
clock the scalar loop would show there.

The pass reads a run's totals from :func:`~repro.runtime.program.
lean_lane`.  A body that repeats within its program (born ``hot``)
caches that tuple, and its walk columns, per cost model; a one-shot
body builds them for the one execution and drops them.  Anything
observed runs on the scalar loop, the correctness oracle
(``replay="scalar"`` forces it everywhere); the end state of both
routes is byte-identical, which the equivalence tests assert over
randomized programs and the paper workloads.

A hot run also stops re-checking what its executions cannot change.
After its first full probe on a node it keeps that node's *home-resident
split*: the distinct ids homed elsewhere, and their write lanes, tagged
with the engine's :attr:`~repro.dsm.hlrc.HomeBasedLRC.home_epoch`.
Later executions there in the same epoch probe and write-book only
those.  This is exact: the full probe left a ``HOME`` copy of every
other id on the node, a ``HOME`` copy is always current (it never
faults, twins or diffs), and only a re-homing turns one into a cache
copy — which draws a new epoch.  Home writes still enter the
interval's written set, since they publish notices at close; first
touches and the walk read the full lane.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, compress, filterfalse
from operator import add, attrgetter

from repro.dsm.states import CopyRecord, RealState
from repro.runtime.program import AccessRun, lean_lane, walk_lane
from repro.sim.events import EventKind

_HOME = RealState.HOME
_VALID = RealState.VALID
_INVALID = RealState.INVALID
_OBJ_ID = attrgetter("obj_id")
_TIMER_FIRE = EventKind.TIMER_FIRE


class WalkedRunMigrationError(RuntimeError):
    """A timer fired inside a walked run left a migration pending for
    its own thread.  The scalar loop would migrate at the next op
    boundary, inside the run; the walk cannot split the run there, so it
    stops instead of diverging (see ``TimerHook``)."""


class VectorEngine:
    """Executes :class:`AccessRun` occurrences in one pass for one
    interpreter.

    Created by :meth:`Interpreter.run` when replay mode is ``"vector"``
    and no ``per_op`` observer (sanitizer / race detector) is attached;
    the segment loop hands it a run only under the gate of the module
    docstring.
    """

    __slots__ = (
        "hlrc",
        "_interp",
        "_objects",
        "_copies_by_node",
        "costs",
        "runs_bulk",
        "runs_lean",
        "faults_batched",
        "first_touches",
        "stops",
        "timer_fires",
        "home_resident",
    )

    def __init__(self, interp) -> None:
        hl = interp.hlrc
        self.hlrc = hl
        self._interp = interp
        self._objects = hl._objects
        self._copies_by_node = hl._copies_by_node
        self.costs = hl.costs
        # Routing counts (host-side only; see routing()).
        self.runs_bulk = 0
        self.runs_lean = 0
        self.faults_batched = 0
        self.first_touches = 0
        self.stops = 0
        self.timer_fires = 0
        self.home_resident = 0

    def routing(self) -> dict[str, int]:
        """How the engine routed this run's access runs: executions on a
        cached lane (``bulk``, bodies that repeat in their program) or a
        transient one (``lean``, one-shot bodies), remote faults priced
        in one pass (``faults_batched``), interval first touches handed
        to first-touch entries (``first_touches``), re-armed accesses
        given their exact clock for the tracking entries (``stops``),
        timer fires inside walked runs (``timer_fires``), and probes a
        home-resident split skipped (``home_resident``)."""
        return {
            "bulk": self.runs_bulk,
            "lean": self.runs_lean,
            "faults_batched": self.faults_batched,
            "first_touches": self.first_touches,
            "stops": self.stops,
            "timer_fires": self.timer_fires,
            "home_resident": self.home_resident,
        }

    def _lanes(self, run: AccessRun, walk: bool) -> tuple:
        """``(lane, walk columns)`` for one execution of ``run``; the
        columns are None unless the run walks (and may be stale then).
        A one-shot body builds them for this execution; a hot one caches
        them per cost model."""
        costs = self.costs
        if not run.hot:
            # A one-shot body would keep a cached lane alive for nothing.
            self.runs_lean += 1
            return walk_lane(run.ops, costs) if walk else (lean_lane(run.ops, costs), None)
        self.runs_bulk += 1
        key = run._cost_key
        # Identity first (same engine re-executing), equality second so a
        # cached lane survives across DJVM instances sharing a cost model
        # by value (the ledger reuses compiled programs).
        if key is not costs and key != costs:
            run._lane = run._cols = None
            run._cost_key = costs
        if walk:
            if run._cols is None:
                run._lane, run._cols = walk_lane(run.ops, costs)
        elif run._lane is None:
            run._lane = lean_lane(run.ops, costs)
        return run._lane, run._cols

    def execute(self, thread, run: AccessRun, pc: int, deadline: int) -> int:
        """Replay one whole occurrence of ``run``, which starts at op
        ``pc``, for ``thread``; the caller then advances past it
        (``pc += run.n_ops``).  ``deadline`` is the interpreter's next
        timer deadline (-1: no timer; never 0, which keeps a run on the
        scalar loop).  Returns the deadline after the run, recomputed
        after each fire inside it.  Only legal under the gate of the
        module docstring."""
        hlrc = self.hlrc
        walk = deadline > 0 or hlrc.rearming
        (busy, compute, uniq, writes), cols = self._lanes(run, walk)
        node_id = thread.node_id
        copies = self._copies_by_node[node_id]
        objects = self._objects
        get = copies.get
        w_all = writes[0]
        probe = uniq
        splits = run._splits
        split = splits.get(node_id) if splits else None
        stale = split is None or split[0] != hlrc.home_epoch
        if not stale:
            _, probe, writes = split
            self.home_resident += len(uniq) - len(probe)
        faulted = []
        for oid in probe:
            record = get(oid)
            if record is not None and record.real_state is not _INVALID:
                continue
            obj = objects[oid]
            if obj.home_node == node_id:
                # Home copies materialize lazily at zero cost.
                copies[oid] = CopyRecord(oid, _HOME)
            else:
                if record is None:
                    copies[oid] = CopyRecord(oid, _VALID, obj.home_version)
                else:
                    record.real_state = _VALID
                    record.fetched_version = obj.home_version
                faulted.append(obj)
        if stale and run.hot:
            if splits is None:
                splits = run._splits = {}
            splits[node_id] = self._split(hlrc.home_epoch, copies, uniq, writes)
        clock = thread.clock
        base = clock._now_ns
        twins = {} if walk else None
        if w_all:
            # Home writes too: every written id publishes a notice at close.
            thread.current_interval.written.update(w_all)
        twin_ns = self._apply_writes(thread, copies, *writes, twins) if writes[0] else 0
        cpu = thread.cpu
        cpu.access_ns += busy
        cpu.compute_ns += compute
        cpu.protocol_ns += twin_ns
        clock._now_ns += busy + compute + twin_ns
        prices = None
        if faulted:
            prices = hlrc.charge_faults(thread, faulted)
            self.faults_batched += len(faulted)
        hooks = hlrc._on_first_touch
        touched = self._first_touches(thread, uniq, faulted, hooks) if hooks else None
        if walk:
            deadline = self._walk(
                thread, run, uniq, cols, base, pc, deadline, faulted, prices, twins, touched
            )
        return deadline

    @staticmethod
    def _split(epoch: int, copies: dict, uniq, writes: tuple) -> tuple:
        """The home-resident split of a hot run just fully probed on the
        node whose copies are ``copies``: ``(epoch, ids to probe, their
        write lanes)`` — the ids whose copy there is no ``HOME`` copy,
        in first-touch order, and the write lanes filtered to them.  A
        run with no home id keeps its full lane."""
        foreign = [oid for oid in uniq if copies[oid].real_state is not _HOME]
        if len(foreign) == len(uniq):
            return epoch, uniq, writes
        w_oids, w_welems, w_wops = writes
        keep = [copies[oid].real_state is not _HOME for oid in w_oids]
        return epoch, foreign, (
            list(compress(w_oids, keep)),
            list(compress(w_welems, keep)),
            list(compress(w_wops, keep)),
        )

    def _first_touches(self, thread, uniq, faulted: list, hooks: tuple) -> tuple | None:
        """Book the run's first touches in the current interval — the
        distinct ``uniq`` ids it has not touched yet — in its touched
        set, so later accesses this interval are not first touches, and
        hand them to each hook's first-touch entry in one call, hooks in
        registration order, with the ids among them that faulted.  A
        fault outside the new ids (a copy the interval touched before a
        migration moved the thread) is no first touch, as on the scalar
        loop.  Returns the new ids and the hooks' summed per-id clock
        charges (None: nothing charged), or None."""
        touched = thread.current_interval.touched
        ids = list(filterfalse(touched.__contains__, uniq))
        if not ids:
            return None
        hit = set(filterfalse(touched.__contains__, map(_OBJ_ID, faulted)))
        touched.update(ids)
        self.first_touches += len(ids)
        charges = None
        for fast in hooks:
            got = fast(thread, ids, hit)
            if got is not None:
                charges = got if charges is None else list(map(add, charges, got))
        return ids, charges

    def _walk(
        self, thread, run, first_op, cols, base, pc, deadline, faulted, prices, twins, touched
    ) -> int:
        """Give the run's clock stops the clock the scalar loop would
        show there: every access of a re-armed id (its tracking entries
        are called) and every op after which a timer deadline has
        passed (the timers fire).  The clock after op ``k`` is ``base``
        plus the prefix sum through ``k`` of each op's static cost (the
        columns of :func:`walk_lane`; its lane's distinct objects,
        ``first_op``, map each to its first access op) and dynamic
        charges — a fault's trap and
        fetch at the object's first access, a twin at its first write,
        the first-touch entries' charges at the first touch — plus what
        earlier stops charged.  A run with no stop keeps the clock the
        one pass left it.  Returns the deadline after the run."""
        clock = thread.clock
        rearmed = thread.current_interval.rearmed
        stops = first_op.keys() & rearmed.keys() if rearmed else ()
        if not stops and (deadline < 0 or clock._now_ns < deadline):
            return deadline
        steps, acc_ops, acc_oids, first_write = cols
        if faulted or twins or touched:
            if run.hot:
                steps = steps.copy()  # the cached columns stay static
            if faulted:
                keys, price = prices
                for obj, key in zip(faulted, keys):
                    steps[first_op[obj.obj_id]] += price[key]
            for oid, ns in twins.items():  # simlint: disable=SIM003 (each adds at its own op; order cannot leak)
                steps[first_write[oid]] += ns
            if touched is not None and touched[1] is not None:
                for oid, ns in zip(*touched):
                    steps[first_op[oid]] += ns
        after = list(accumulate(steps))  # clock after each op, less base and stops
        last = len(after) - 1
        if clock._now_ns != base + after[last]:
            raise RuntimeError(
                "a first-touch entry charged the clock without returning its per-id charges"
            )
        # No deadline: a bound no clock reaches.
        bound = deadline if deadline > 0 else 1 << 62
        off = base  # the clock less the prefix sum: base plus what stops and fires charged
        lo = 0  # first op not yet polled for a timer fire
        if stops:
            hit = list(map(stops.__contains__, acc_oids))
            stop_ops = list(compress(acc_ops, hit))
            self.stops += len(stop_ops)
            for j, oid in zip(stop_ops, compress(acc_oids, hit)):
                if after[j - 1] + off >= bound:
                    off, bound, lo = self._fire(thread, after, off, lo, j, pc, bound)
                clock._now_ns = after[j] + off
                for track in rearmed[oid]:
                    track(thread, oid)
                off = clock._now_ns - after[j]
                if clock._now_ns >= bound:
                    off, bound, lo = self._fire(thread, after, off, j, j + 1, pc, bound)
                lo = j + 1
        if after[last] + off >= bound:
            off, bound, lo = self._fire(thread, after, off, lo, last + 1, pc, bound)
        clock._now_ns = after[last] + off
        return bound if deadline > 0 else deadline

    def _fire(self, thread, after, off, lo, hi, pc, deadline) -> tuple[int, int, int]:
        """Poll the timers as the scalar loop does after each op of
        ``[lo, hi)`` — a range no stop lies inside — at every op whose
        clock ``after[k] + off`` has reached the deadline, found by
        bisection: clock and ``pc`` as after that op, every timer's
        ``maybe_fire``, a ``TIMER_FIRE`` record for a positive deadline,
        and the deadline recomputed.  Returns ``(off, deadline, lo)``
        after the last fire."""
        interp = self._interp
        timers = interp.timers
        mig = interp.migration_engine
        clock = thread.clock
        tid = thread.thread_id
        while lo < hi and after[hi - 1] + off >= deadline:
            k = bisect_left(after, deadline - off, lo, hi)
            clock._now_ns = after[k] + off
            thread.pc = pc + k + 1
            for timer in timers:
                timer.maybe_fire(thread)
            if deadline > 0:
                interp.kernel.record(_TIMER_FIRE, clock._now_ns, tid)
            self.timer_fires += 1
            off = clock._now_ns - after[k]
            deadline = min(t.next_fire_ns(thread) for t in timers)
            if mig is not None and mig.has_pending(tid):
                raise WalkedRunMigrationError(
                    f"thread {tid}: a timer fired at pc {thread.pc} inside a walked "
                    "access run left a migration pending for its own thread"
                )
            lo = k + 1
        return off, deadline, lo

    def _apply_writes(
        self, thread, copies: dict, w_oids, w_welems, w_wops, twins: dict | None = None
    ) -> int:
        """Write bookkeeping of one run's written cache copies (the
        caller books the written set): for each, its twin (first write
        this interval), dirty bytes and writer; returns the twin cost.
        The three lanes are parallel (written object, elements, write
        ops).  ``twins``, if given, receives each twin's cost by object."""
        objects = self._objects
        tid = thread.thread_id
        twin_per_byte = self.costs.twin_ns_per_byte
        twin_ns = 0
        for oid, welems, wops in zip(w_oids, w_welems, w_wops):
            record = copies[oid]
            if record.real_state is _HOME:
                continue
            obj = objects[oid]
            size = obj.size_bytes
            if not record.has_twin:
                record.has_twin = True
                ns = size * twin_per_byte
                twin_ns += ns
                if twins is not None:
                    twins[oid] = ns
            if obj.is_array:
                wb = welems * obj.jclass.element_size
            else:
                wb = wops * obj.jclass.instance_size
            record.dirty_bytes = min(record.dirty_bytes + wb, size)
            writers = record.writers
            if writers is None:
                record.writers = {tid}
            else:
                writers.add(tid)
        return twin_ns
