"""Vectorized access replay: one-pass execution of access runs that
nothing observes beyond their interval first touches.

The scalar interpreter dispatches every READ/WRITE/COMPUTE op through
Python (one :meth:`~repro.dsm.hlrc.HomeBasedLRC.access` call per op).
For the dominant access streams of real workloads that is almost pure
overhead: inside one execution segment copy state cannot change (write
notices apply only at synchronization), so after an object's *first*
access of a run every later access is a guaranteed hit, and after its
*first* write the twin already exists.

When nothing observes the run's intermediate states — no observer,
prefetcher, timer or pending migration, an unqueued network, and every
profiler hook ``first_touch`` (:meth:`HomeBasedLRC.unobserved`; the
interpreter owns the timer and migration half of the gate) — only end
state is visible and every simulated cost is an integer sum.  The
engine then replays a whole run in one pass over its distinct objects in
first-touch order: each copy is probed once, lazy home copies are
materialized, invalid or missing cache copies are refreshed and their
faults charged in one :meth:`HomeBasedLRC.charge_faults`, written cache
copies get their twin, dirty bytes and writer, and the clock and CPU
buckets move once.  Under first-touch hooks the run's first touches in
the current interval (the paper's profiler traps only those) are then
booked in the interval's columns and handed, with the ids among them
that faulted, to the hooks' batch-shaped ``fast_on_access``: one call
per run for a single hook, per object in the scalar loop's order for
several.

The pass reads a run's totals from :func:`~repro.runtime.program.
lean_lane`.  A body that repeats within its program (born ``hot``)
caches that tuple per cost model; a one-shot body builds it for the one
execution and drops it.  Anything observed runs on the scalar loop, the
correctness oracle (``replay="scalar"`` forces it everywhere); the end
state of both routes is byte-identical, which the equivalence tests
assert over randomized programs and the paper workloads.
"""

from __future__ import annotations

from itertools import filterfalse
from operator import attrgetter

from repro.dsm.states import CopyRecord, RealState
from repro.runtime.program import AccessRun, lean_lane

_HOME = RealState.HOME
_VALID = RealState.VALID
_INVALID = RealState.INVALID
_OBJ_ID = attrgetter("obj_id")


class VectorEngine:
    """Executes :class:`AccessRun` occurrences in one pass for one
    interpreter.

    Created by :meth:`Interpreter.run` when replay mode is ``"vector"``
    and no ``per_op`` observer (sanitizer / race detector) is attached;
    the segment loop hands it a run only under the unobserved gate.
    """

    __slots__ = (
        "hlrc",
        "_objects",
        "_copies_by_node",
        "costs",
        "runs_bulk",
        "runs_lean",
        "faults_batched",
        "first_touches",
    )

    def __init__(self, interp) -> None:
        hl = interp.hlrc
        self.hlrc = hl
        self._objects = hl._objects
        self._copies_by_node = hl._copies_by_node
        self.costs = hl.costs
        # Routing counts (host-side only; see routing()).
        self.runs_bulk = 0
        self.runs_lean = 0
        self.faults_batched = 0
        self.first_touches = 0

    def routing(self) -> dict[str, int]:
        """How the engine routed this run's access runs: executions on a
        cached lane (``bulk``, bodies that repeat in their program) or a
        transient one (``lean``, one-shot bodies), remote faults priced
        in one pass (``faults_batched``), and interval first touches
        handed to first-touch hooks (``first_touches``)."""
        return {
            "bulk": self.runs_bulk,
            "lean": self.runs_lean,
            "faults_batched": self.faults_batched,
            "first_touches": self.first_touches,
        }

    def _lane(self, run: AccessRun) -> tuple:
        costs = self.costs
        if not run.hot:
            # A one-shot body would keep a cached lane alive for nothing.
            self.runs_lean += 1
            return lean_lane(run.ops, costs)
        self.runs_bulk += 1
        key = run._cost_key
        # Identity first (same engine re-executing), equality second so a
        # cached lane survives across DJVM instances sharing a cost model
        # by value (the ledger reuses compiled programs).
        if key is not costs and key != costs:
            run._lane = lean_lane(run.ops, costs)
            run._cost_key = costs
        return run._lane

    def execute(self, thread, run: AccessRun) -> None:
        """Replay one whole occurrence of ``run`` for ``thread``, which
        the caller then advances past (``pc += run.n_ops``).  Only legal
        under the gate of the module docstring."""
        busy, compute, uniq, writes = self._lane(run)
        node_id = thread.node_id
        copies = self._copies_by_node[node_id]
        objects = self._objects
        get = copies.get
        faulted = []
        for oid in uniq:
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
        twin_ns = self._apply_writes(thread, copies, *writes) if writes[0] else 0
        cpu = thread.cpu
        cpu.access_ns += busy
        cpu.compute_ns += compute
        cpu.protocol_ns += twin_ns
        thread.clock._now_ns += busy + compute + twin_ns
        if faulted:
            self.hlrc.charge_faults(thread, faulted)
            self.faults_batched += len(faulted)
        hooks = self.hlrc._on_first_touch
        if hooks:
            self._first_touches(thread, uniq, faulted, hooks)

    def _first_touches(self, thread, uniq, faulted: list, hooks: tuple) -> None:
        """Book the run's first touches in the current interval — the
        ``uniq`` ids its columns do not hold yet — in the four columns,
        so later accesses this interval are not first touches, and hand
        them to the hooks with the ids among them that faulted.  One
        hook takes them in one call; several are called per object,
        hooks in registration order, as on the scalar loop.  The booked
        counts and times are zeros: under the gate nothing reads them.
        A fault outside the new ids (a copy the interval touched before
        a migration moved the thread) is no first touch, as on the
        scalar loop."""
        interval = thread.current_interval
        last_ns = interval.last_ns
        zeros = dict.fromkeys(filterfalse(last_ns.__contains__, uniq), 0)
        if not zeros:
            return
        interval.reads.update(zeros)
        interval.writes.update(zeros)
        interval.first_ns.update(zeros)
        last_ns.update(zeros)
        self.first_touches += len(zeros)
        hit = zeros.keys() & map(_OBJ_ID, faulted)
        if len(hooks) == 1:
            hooks[0][0](thread, list(zeros), hit)
            return
        for oid in zeros:
            ids = [oid]
            ids_hit = ids if oid in hit else ()
            for fast, _batch in hooks:
                fast(thread, ids, ids_hit)

    def _apply_writes(self, thread, copies: dict, w_oids, w_welems, w_wops) -> int:
        """Write bookkeeping of one run: the written set, and for each
        written cache copy its twin (first write this interval), dirty
        bytes and writer; returns the twin cost.  The three lanes are
        parallel (written object, elements, write ops)."""
        objects = self._objects
        tid = thread.thread_id
        twin_per_byte = self.costs.twin_ns_per_byte
        thread.current_interval.written.update(w_oids)
        twin_ns = 0
        for oid, welems, wops in zip(w_oids, w_welems, w_wops):
            record = copies[oid]
            if record.real_state is _HOME:
                continue
            obj = objects[oid]
            size = obj.size_bytes
            if not record.has_twin:
                record.has_twin = True
                twin_ns += size * twin_per_byte
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
