"""Vectorized replay: one-pass execution of segment bodies that nothing
observes beyond their interval first touches and their clock stops.

The scalar interpreter dispatches every op through Python (one
:meth:`~repro.dsm.hlrc.HomeBasedLRC.access` call per READ/WRITE op).
For the dominant access streams of real workloads that is almost pure
overhead: under HLRC copy state changes only at synchronization (write
notices apply there), so inside a segment — every op between two sync
ops — after an object's *first* access every later access is a
guaranteed hit, and after its *first* write the twin already exists.
The segment body is therefore the engine's unit, frame ops included.

When nothing observes the body's intermediate states except at the
points below — no observer of accesses or faults, prefetcher, keyword
hook, condition-driven timer or pending migration
(:meth:`HomeBasedLRC.unobserved`; the interpreter owns the timer and
migration half of the gate) — every simulated cost is an integer sum.
The engine then replays a whole body in one pass.  The probe is one
gather of the node's state-byte column (:class:`~repro.heap.heap.
LocalHeap`) at the body's ids and one compare, which leaves the ids
whose copy is absent or ``INVALID``; those misses alone materialize
lazy home copies and refresh the cache copies (a Python loop for a
few, numpy past :data:`_NUMPY_MISSES`), whose faults are charged in one
:meth:`HomeBasedLRC.charge_faults`.  One more gather over the written
ids finds the written cache copies, which get their twin, dirty bytes
and writer, and the clock and CPU buckets move once, frame-op costs
included.  Under profiler hooks the body's first touches in the
current interval (the paper's profiler traps only those) are then
booked in the interval's touched set and handed, with the ids among
them that faulted, to each hook's batch-shaped first-touch entry, one
call per hook.  With no hook and no observer, nothing reads the touched
set, and the pass skips booking it.  The frame ops (CALL, RET, SETSLOT)
go to the thread's stack in op order at the end of the pass.

Two things read the clock mid-body: the re-arming hook's tracking entry
at every access of an id it re-armed (the footprinter's sampled
objects), and a timer whose deadline passes.  For those the pass
*walks*: it places the body's charges at their ops — static costs from
the row's walk columns, each fault at its object's first access, each
twin at its first write, each non-zero first-touch charge at its first
touch — and hands the tracking entry the body's stops in one call, each
with the clock the scalar loop would show there, bounded by the next
timer deadline; where that bound cuts the stops short the timers fire
at their op, after the frame ops before it (a stack sampler reads the
stack), and the entry resumes.

A body is a row of the lane table its program builds, in one numpy
pass, for all its bodies (:meth:`~repro.runtime.program.CompiledProgram.
vector_runs` lists them by pc), and its lane is slices of that table:
the probe's ids, the frame ops and the write lanes always; the ids as a
list only where a hook, an observer or the walk reads them; the walk
columns only where a stop or a timer deadline falls in the body.  Its
totals are its summed repeats times the busy time of one access, its
frame ops' costs and its compute sum.  Anything observed runs on the
scalar loop, the correctness oracle (``replay="scalar"`` forces it
everywhere); the end state of both routes is byte-identical, which the
equivalence tests assert over randomized programs and the paper
workloads.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import accumulate, compress, filterfalse
from operator import add

import numpy as np

from repro.dsm.intervals import NO_BOUND
from repro.dsm.states import HOME, VALID
from repro.runtime.program import OP_CALL, OP_RET
from repro.runtime.stack import Frame
from repro.sim.events import EventKind

_TIMER_FIRE = EventKind.TIMER_FIRE

#: misses from which the probe's copies are made current with numpy
#: rather than a Python loop (numpy's per-call cost wins only past it).
_NUMPY_MISSES = 32


def _add_at(steps: list, ops: list, ns) -> None:
    """``steps[op] += charge`` for each op of ``ops`` (distinct op
    indices) and charge of ``ns``, at C speed."""
    deque(map(steps.__setitem__, ops, map(add, map(steps.__getitem__, ops), ns)), 0)


class WalkedRunMigrationError(RuntimeError):
    """A timer fired inside a walked body left a migration pending for
    its own thread.  The scalar loop would migrate at the next op
    boundary, inside the body; the walk cannot split the body there, so
    it stops instead of diverging (see ``TimerHook``)."""


class _Frames:
    """A row's frame ops (CALL, RET, SETSLOT), applied to the thread's
    stack in op order as the scalar loop applies them, ``thread.pc``
    where the scalar loop has it when one fails: :meth:`through` applies
    the ones before a row offset not applied yet."""

    __slots__ = ("thread", "start", "pc", "rels", "done")

    def __init__(self, thread, start: int, pc: int, rels: list[int], skip: int) -> None:
        self.thread = thread
        self.start = start  # the row's store position
        self.pc = pc  # the row's pc
        self.rels = rels  # the frame ops' row offsets, ascending
        self.done = bisect_left(rels, skip)  # frame ops applied: the scalar loop ran the first skip ops

    def through(self, k: int) -> None:
        """Apply the frame ops at row offsets below ``k``."""
        rels, j = self.rels, self.done
        n = len(rels)
        if j == n or rels[j] >= k:
            return
        thread = self.thread
        program = thread.program
        codes, side = program._codes, program._side
        args, n_elems = program._views[0], program._views[1]
        stack = thread.stack
        start, pc = self.start, self.pc
        while j < n and rels[j] < k:
            rel = rels[j]
            i = start + rel
            code = codes[i]
            j += 1
            if code == OP_CALL:
                method, refs = side[i]
                thread.pc = pc + rel
                stack.push(Frame(method, n_elems[i], dict(refs)))
                continue
            thread.pc = pc + rel + 1
            if code == OP_RET:
                stack.pop()
                continue
            top = stack.top  # SETSLOT
            if top is None:
                raise RuntimeError(f"thread {thread.thread_id}: SETSLOT at pc {thread.pc} with empty stack")
            top.set_slot(args[i], None if i in side else n_elems[i])
        self.done = j


class VectorEngine:
    """Executes segment bodies in one pass for one interpreter.

    Created with its :class:`Interpreter` when replay mode is
    ``"vector"``; the segment loop hands it a body only under the gate
    of the module docstring.
    """

    __slots__ = (
        "hlrc",
        "_interp",
        "_gos",
        "_ints",
        "_heaps",
        "costs",
        "runs",
        "faults_batched",
        "first_touches",
        "stops",
        "timer_fires",
    )

    def __init__(self, interp) -> None:
        hl = interp.hlrc
        self.hlrc = hl
        self._interp = interp
        self._gos = hl.gos
        #: each object id as a Python int object, by id (built with the
        #: first lane table): lanes hand the protocol these very objects.
        self._ints = None
        self._heaps = hl.heaps
        self.costs = hl.costs
        # Routing counts (host-side only; see routing()).
        self.runs = 0
        self.faults_batched = 0
        self.first_touches = 0
        self.stops = 0
        self.timer_fires = 0

    def routing(self) -> dict[str, int]:
        """How the engine routed this run's segment bodies: executions
        in one pass (``runs``), remote faults priced in one pass
        (``faults_batched``), interval first touches booked for hooks or
        observers (``first_touches``), re-armed accesses given their
        exact clock for the tracking entries (``stops``), and timer
        fires inside walked bodies (``timer_fires``)."""
        return {
            "runs": self.runs,
            "faults_batched": self.faults_batched,
            "first_touches": self.first_touches,
            "stops": self.stops,
            "timer_fires": self.timer_fires,
        }

    def execute(self, thread, row: int, pc: int, deadline: int, skip: int = 0) -> int:
        """Replay, for ``thread``, one whole occurrence of the segment
        body that is ``row`` of its program's lane table, whose first op
        is at pc ``pc``, but for its first ``skip`` ops, which the scalar
        loop ran (frame and compute ops only); the caller then advances
        past it.  ``deadline`` is the interpreter's next timer deadline
        (-1: no timer; never 0, which keeps an op on the scalar loop).
        Returns the deadline after the body, recomputed after each fire
        inside it.  Only legal under the gate of the module docstring.
        An op that fails raises the scalar loop's error with
        ``thread.pc`` where the scalar loop leaves it."""
        self.runs += 1
        hlrc = self.hlrc
        program = thread.program
        ints = self._ints
        if ints is None:
            ints = self._ints = np.arange(len(self._gos)).astype(object)
        table = program._lane_table(ints)
        a, b = table.bounds[row], table.bounds[row + 1]
        node_id = thread.node_id
        heap = self._heaps[node_id]
        # The probe: one gather of the body's state bytes finds the ids
        # whose copy here is absent or INVALID (``take`` gathers with a
        # narrow index several times faster than indexing does).
        idx = table.acc_idx[a:b]
        miss = idx[heap.state_np.take(idx) < VALID]
        faulted = self._materialize(heap, miss, node_id) if miss.size else []
        clock = thread.clock
        base = clock._now_ns
        walk = deadline > 0 or hlrc.tracker is not None
        twins = {} if walk else None
        twin_ns = 0
        wa, wb = table.w_bounds[row], table.w_bounds[row + 1]
        if wa < wb:
            # Home writes too: every written id publishes a notice at close.
            thread.current_interval.written.update(table.w_ids[wa:wb])
            cached = (heap.state_np.take(table.w_idx[wa:wb]) != HOME).nonzero()[0]
            if cached.size:
                twin_ns = self._apply_writes(thread, heap, table, cached + wa, twins)
        busy, compute = table.totals(program, row, self.costs)
        if skip:
            ran = table.head(program, row, skip, self.costs)
            busy -= ran[0]
            compute -= ran[1]
        cpu = thread.cpu
        cpu.access_ns += busy
        cpu.compute_ns += compute
        cpu.protocol_ns += twin_ns
        clock._now_ns += busy + compute + twin_ns
        prices = None
        if faulted:
            prices = hlrc.charge_faults(thread, faulted)
            self.faults_batched += len(faulted)
        fa, fb = table.f_bounds[row], table.f_bounds[row + 1]
        frames = _Frames(thread, table.starts[row], pc, table.f_rel[fa:fb].tolist(), skip) if fa < fb else None
        hooks = hlrc._on_first_touch
        # Observers read the touched set at close (the sanitizer's SAN003).
        observed = hooks or hlrc.observers
        if observed or walk:
            ids = table.ids(row)
            touched = self._first_touches(thread, ids, faulted, hooks) if observed else None
            if walk:
                deadline = self._walk(
                    thread, table, row, ids, base, pc, skip, deadline, faulted, prices, twins, touched, frames
                )
        if frames is not None:
            frames.through(table.lengths[row])
        return deadline

    def _materialize(self, heap, miss: np.ndarray, node_id: int) -> list[int]:
        """Make the copies of ``miss`` (the probe's ids, repeats kept)
        current at ``heap``: a home copy materializes lazily at zero
        cost, the rest become ``VALID`` cache copies at the home's
        version.  Returns the faulted ids, each once, in first-access
        order.  A few misses (SOR's rows have about one) take a Python
        loop; more take numpy, where the assignments are idempotent
        over repeats."""
        if miss.size < _NUMPY_MISSES:
            home = self._gos.home
            state = heap.state
            fetched = heap.fetched
            home_version = self.hlrc.home_version
            faulted = []
            for oid in miss.tolist():
                if state[oid] >= VALID:
                    continue  # a repeat of an id this probe made current
                if home[oid] == node_id:
                    state[oid] = HOME
                else:
                    state[oid] = VALID
                    fetched[oid] = home_version[oid]
                    faulted.append(oid)
            return faulted
        local = self._gos.home_np.take(miss) == node_id
        heap.state_np[miss[local]] = HOME
        remote = miss[~local]
        heap.state_np[remote] = VALID
        heap.fetched_np[remote] = self.hlrc.home_version_np.take(remote)
        return remote[np.sort(np.unique(remote, return_index=True)[1])].tolist()

    def _first_touches(self, thread, accessed, faulted: list[int], hooks: tuple) -> tuple | None:
        """Book the run's first touches in the current interval — the
        ``accessed`` ids it has not touched yet, each once, in
        first-touch order — in its touched set, so later accesses this
        interval are not first touches, and hand them to each hook's
        first-touch entry in one call, hooks in registration order, with
        the ids among them that faulted.  A
        fault outside the new ids (a copy the interval touched before a
        migration moved the thread) is no first touch, as on the scalar
        loop.  Returns the new ids and the hooks' summed per-id clock
        charges (None: nothing charged), or None."""
        touched = thread.current_interval.touched
        ids = list(dict.fromkeys(filterfalse(touched.__contains__, accessed)))
        if not ids:
            return None
        hit = set(filterfalse(touched.__contains__, faulted))
        touched.update(ids)
        self.first_touches += len(ids)
        charges = None
        for fast in hooks:
            got = fast(thread, ids, hit)
            if got is not None:
                charges = got if charges is None else list(map(add, charges, got))
        return ids, charges

    def _walk(
        self, thread, table, row, acc_oids, base, pc, skip, deadline, faulted, prices, twins, touched, frames
    ) -> int:
        """Give the run's clock stops the clock the scalar loop would
        show there: every access of a re-armed id (the tracking entry
        takes them) and every op after which a timer deadline has
        passed (the timers fire).  The clock after op ``k`` is ``base``
        plus the prefix sum through ``k`` of each op's static cost (the
        walk columns of row ``row`` of the lane ``table``, whose
        ``first_op`` maps each accessed object to its first access op;
        ``acc_oids`` are the row's access ids) and dynamic
        charges — a fault's trap and fetch at the object's first
        access, a twin at its first write, the first-touch entries'
        non-zero charges at the first touch — plus what earlier stops
        and fires charged.  The stops go to the tracking entry in one
        call bounded by the deadline (the batch contract of
        ``ProtocolHooks``); where it stops short, the timers fire where
        the scalar loop polls them, the stop it stopped at is taken
        alone, and the rest follow.  A run with no stop keeps the clock
        the one pass left it.  Returns the deadline after the run."""
        clock = thread.clock
        rearmed = thread.current_interval.rearmed
        stops = not rearmed.isdisjoint(acc_oids)
        if not stops and (deadline < 0 or clock._now_ns < deadline):
            return deadline
        steps, acc_ops, first_write, first_op = table.walk(thread.program, row, self.costs, acc_oids)
        if skip:
            steps[:skip] = [0] * skip  # the scalar loop ran them
        steps[0] += base
        if faulted:
            fault_ops = list(map(first_op.__getitem__, faulted))
            _add_at(steps, fault_ops, prices)
        if twins:
            _add_at(steps, list(map(first_write.__getitem__, twins)), twins.values())
        if touched is not None and touched[1] is not None:
            ids, charges = touched
            charged_ops = list(map(first_op.__getitem__, compress(ids, charges)))
            _add_at(steps, charged_ops, compress(charges, charges))
        # The clock after each op, less what stops and fires charged.
        after = list(accumulate(steps))
        last = len(after) - 1
        if clock._now_ns != after[last]:
            raise RuntimeError(
                "a first-touch entry charged the clock without returning its per-id charges"
            )
        bound = deadline if deadline > 0 else NO_BOUND
        off = 0  # what stops and fires charged so far
        lo = skip  # first op not yet polled for a timer fire
        if stops:
            hit = list(map(rearmed.__contains__, acc_oids))
            stop_ops = list(compress(acc_ops, hit))
            stop_ids = list(compress(acc_oids, hit))
            self.stops += len(stop_ops)
            track = self.hlrc.tracker
            k = 0
            n = len(stop_ops)
            while k < n:
                # The stops from k on, up to the first whose clock
                # reaches the deadline; none before it fires a timer.
                # Charges only move clocks later, so the stops whose
                # clock before them has reached it are left out.
                e = bisect_left(stop_ops, bisect_left(after, bound - off), k)
                if e > k:
                    rest = stop_ops[k:e]
                    clocks = list(map(after.__getitem__, rest))
                    if off:
                        clocks = list(map(off.__add__, clocks))
                    done, charged = track(thread, stop_ids[k:e], clocks, bound)
                    off += charged
                    if done:
                        lo = rest[done - 1]  # polled from the last stop taken, after its charge
                        k += done
                        if k == n:
                            break
                # Stop k's clock has reached the deadline: the timers fire
                # where the scalar loop polls them before it, then the
                # stop is taken alone, then polled after.
                j = stop_ops[k]
                off, bound, lo = self._fire(thread, after, off, lo, j, pc, bound, frames)
                off += track(thread, stop_ids[k : k + 1], [after[j] + off], NO_BOUND)[1]
                off, bound, lo = self._fire(thread, after, off, j, j + 1, pc, bound, frames)
                lo = j + 1
                k += 1
        if after[last] + off >= bound:
            off, bound, lo = self._fire(thread, after, off, lo, last + 1, pc, bound, frames)
        clock._now_ns = after[last] + off
        return bound if deadline > 0 else deadline

    def _fire(self, thread, after, off, lo, hi, pc, deadline, frames) -> tuple[int, int, int]:
        """Poll the timers as the scalar loop does after each op of
        ``[lo, hi)`` — a range with no stop left to take — at every op whose
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
            if frames is not None:
                frames.through(k + 1)  # a stack sampler reads the stack
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

    def _apply_writes(self, thread, heap, table, at: np.ndarray, twins: dict | None) -> int:
        """Write bookkeeping of one body's written cache copies (the
        caller books the written set): for each, its twin (first write
        this interval), dirty bytes and writer; returns the twin cost.
        ``at`` are the positions of the cache copies in the lane
        ``table``'s write lanes, ascending.  ``twins``, if given,
        receives each twin's cost by object."""
        ids = list(map(table.w_ids.__getitem__, at.tolist()))
        gos = self._gos
        cls, payload, by_id = gos.cls, gos.payload, gos.registry.by_id
        heap_twins = heap.twins
        tid = thread.thread_id
        twin_per_byte = self.costs.twin_ns_per_byte
        twin_ns = 0
        for oid, elems, ops in zip(ids, table.w_elems.take(at).tolist(), table.w_ops.take(at).tolist()):
            jclass = by_id(cls[oid])
            size = payload[oid]
            if jclass.is_array:
                wb = elems * jclass.element_size
                size += jclass.instance_size
            else:
                wb = ops * size
            twin = heap_twins.get(oid)
            if twin is None:
                twin = heap_twins[oid] = [0, {tid}]
                ns = size * twin_per_byte
                twin_ns += ns
                if twins is not None:
                    twins[oid] = ns
            else:
                twin[1].add(tid)
            twin[0] = min(twin[0] + wb, size)
        return twin_ns
