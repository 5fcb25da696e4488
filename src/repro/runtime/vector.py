"""Vectorized access replay: bulk execution of pre-decoded access runs.

The scalar interpreter dispatches every READ/WRITE/COMPUTE op through
Python (one :meth:`~repro.dsm.hlrc.HomeBasedLRC.access` call per op).
For the dominant access streams of real workloads that is almost pure
overhead: inside one execution segment, copy state cannot change (write
notices apply only at synchronization), so after an object's *first*
access of a run every later access is a guaranteed hit, and after its
*first* write the twin already exists.  This engine exploits that:

* **Fast lanes** (precomputed per run by :class:`~repro.runtime.program.
  AccessRun`): per-object totals of reads, writes, written elements and
  the position of the last access — applied to the interval's access
  summaries in one pass at run end.
* **Slow lane**: the run's *checkpoints* (first access / first write per
  object) execute the scalar protocol logic verbatim — coherence probe,
  remote fault, twin creation, summary creation, profiler fast hook.
* **Cost arrays**: exclusive prefix sums of every op's base cost (access
  busy time, compute time) make "advance the clock across k ops" one
  subtraction, and deadline-timer fires one ``bisect``.
* **Unobserved runs** (:meth:`HomeBasedLRC.unobserved`, no timer, no
  pending migration): only end state is visible, so there are no
  checkpoints and no summaries — one pass over the distinct objects
  probes, materializes home copies and refreshes faulted copies, the
  faults are charged in one :meth:`HomeBasedLRC.charge_faults`, and a
  one-shot body is priced from a transient lean lane instead of warming
  up scalar.

Byte-identity with the scalar loop is the contract, not an aspiration:
clock values, CPU accounting buckets, interval summaries (including
``first_ns``/``last_ns`` and dict insertion order), twin/dirty/writer
state, fault traffic, timer-fire points and the kernel trace all come
out bit-for-bit equal, which the equivalence tests assert over
randomized programs.  The engine is disengaged whenever an observer
needs the per-op stream (``per_op`` observers — sanitizer, race detector
— and profiler hooks outside hlrc's first-touch plan).

Clock bookkeeping uses one invariant: at fast-lane position ``pos``,

    ``clock == clock0 + extra + base[pos]``

where ``base`` is the prefix-cost array and ``extra`` accumulates every
cost the prefix pass cannot see (faults, twins, hook and timer-fire
work).  Extras are journaled as ``(key, cumulative)`` pairs keyed by
``2*idx`` for in-op extras (fault/twin — part of that op's access
instant) and ``2*idx + 1`` for post-instant extras (hook/timer work that
happens *after* the op's summary timestamp), so the per-object
``last_ns`` can be reconstructed exactly for any op with one bisect.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right

from repro.dsm.states import CopyRecord, RealState
from repro.runtime.program import OP_COMPUTE, OP_WRITE, AccessRun, lean_lane
from repro.sim.events import EventKind

_HOME = RealState.HOME
_VALID = RealState.VALID
_INVALID = RealState.INVALID
_TIMER_FIRE = EventKind.TIMER_FIRE


class _CostedRun:
    """Per-(run, cost model) prefix-cost arrays (exclusive; length n+1)."""

    __slots__ = ("base", "abusy", "first_base", "last_base")

    def __init__(self, run: AccessRun, costs) -> None:
        ops = run.ops
        n = run.n_ops
        busy_ns = costs.state_check_ns + costs.access_ns
        scale_is_unity = costs.compute_scale == 1.0
        scaled_compute = costs.scaled_compute
        # Packed int64: a list would box two Python ints per op.
        base = array("q", [0]) * (n + 1)
        abusy = array("q", [0]) * (n + 1)
        a = c = 0
        for j, op in enumerate(ops):
            if op[0] == OP_COMPUTE:
                v = op[1]
                # Mirrors the scalar loop's unity-scale fast path so
                # rounding behaviour is identical.
                c += v if scale_is_unity and type(v) is int and v >= 0 else scaled_compute(v)
            else:
                a += busy_ns * op[3]
            j1 = j + 1
            abusy[j1] = a
            base[j1] = a + c
        #: combined base cost prefix (access busy + compute).
        self.base = base
        #: access-busy-only prefix; the compute share of ops [p, e) is
        #: the difference of the two (CPU buckets).
        self.abusy = abusy
        #: per-uniq base-clock offsets of the first/last access instant
        #: (exact summary timestamps when the run pays no extras).
        self.first_base = array("q", [base[j + 1] for j in run.u_first])
        self.last_base = array("q", [base[j + 1] for j in run.u_last])


class VectorEngine:
    """Executes :class:`AccessRun` occurrences in bulk for one interpreter.

    Created by :meth:`Interpreter.run` when replay mode is ``"vector"``
    and no ``per_op`` observer (sanitizer / race detector) is attached; the
    segment loop additionally disengages it per segment when a profiler
    hook is not first-touch-only (``HomeBasedLRC.scalar_only_hook``).
    """

    __slots__ = (
        "interp",
        "hlrc",
        "_objects",
        "_copies_by_node",
        "costs",
        "demoted",
        "_strikes",
        "runs_bulk",
        "runs_lean",
        "runs_declined",
        "runs_demoted",
        "faults_batched",
    )

    def __init__(self, interp) -> None:
        self.interp = interp
        hl = interp.hlrc
        self.hlrc = hl
        self._objects = hl._objects
        self._copies_by_node = hl._copies_by_node
        self.costs = hl.costs
        #: runs demoted to the scalar loop: access streams where most
        #: distinct objects keep needing protocol work (_maybe_demote)
        #: or, under a profiler hook, too many ops are first touches
        #: (execute), so bulk replay is overhead on the scalar walk.
        #: Both paths are byte-identical; this is purely adaptive
        #: performance routing, decided per engine (never cached on the
        #: compiled program) and per run, so it covers every occurrence
        #: of an interned body.
        self.demoted: set[AccessRun] = set()
        #: run -> consecutive majority-slow executions.  One strike is
        #: expected (cold start: every first touch faults); a second
        #: consecutive strike means the working set is re-invalidated
        #: every epoch and the run will never go fast.
        self._strikes: dict[AccessRun, int] = {}
        # Routing counts (host-side only; see routing()).
        self.runs_bulk = 0
        self.runs_lean = 0
        self.runs_declined = 0
        self.runs_demoted = 0
        self.faults_batched = 0

    def routing(self) -> dict[str, int]:
        """How the engine routed this run's access runs: executions
        replayed on materialized lanes (``bulk``) or on a transient lean
        lane (``lean``, cold runs under the unobserved gate), executions
        handed back unexecuted under a profiler hook (``declined``), runs
        demoted as repeatedly majority-slow (``demoted``), and remote
        faults priced in one pass (``faults_batched``)."""
        return {
            "bulk": self.runs_bulk,
            "lean": self.runs_lean,
            "declined": self.runs_declined,
            "demoted": self.runs_demoted,
            "faults_batched": self.faults_batched,
        }

    def _maybe_demote(self, run: AccessRun, n_slow: int, n_uniq: int) -> None:
        """Track majority-slow executions; demote after two in a row."""
        if n_slow * 2 > n_uniq:
            strikes = self._strikes.get(run, 0) + 1
            if strikes >= 2:
                self.demoted.add(run)
                self.runs_demoted += 1
            else:
                self._strikes[run] = strikes
        elif run in self._strikes:
            del self._strikes[run]

    def _costed(self, run: AccessRun) -> _CostedRun:
        costs = self.costs
        key = run._cost_key
        # Identity first (same engine re-executing), equality second so
        # cached arrays survive across DJVM instances sharing a cost
        # model by value (the bench harness reuses compiled programs).
        if key is not costs and key != costs:
            run._costed = _CostedRun(run, costs)
            run._cost_key = costs
        return run._costed

    # ------------------------------------------------------------------

    def execute(
        self, thread, run: AccessRun, start: int, deadline: int
    ) -> tuple[int, int]:
        """Replay the occurrence of ``run`` at pc ``start`` for
        ``thread``; returns the next pc and the (possibly recomputed)
        timer deadline.

        ``deadline`` is the interpreter's current minimum timer deadline,
        or ``-1`` when no timer is attached.  Normally the whole run
        executes and the returned pc is ``start + n``; a migration becoming
        pending mid-run (a timer fire or profiler hook submitted a plan)
        finalizes the executed prefix, evaluates the plan at exactly the
        op boundary the scalar loop would, and returns the mid-run pc so
        the scalar loop resumes there.  A run the engine declines (see
        below) is demoted and ``start`` comes back with nothing executed.
        """
        hl = self.hlrc
        hooks = hl.hooks
        n = run.n_ops
        if hooks:
            # A profiler hook sees every distinct object's first touch,
            # so each is a checkpoint the walk executes scalar-verbatim
            # plus its own bookkeeping — about 2.5 scalar ops' worth.
            # Past one first touch per four ops the scalar loop is
            # cheaper (SOR's sweeps, at 0.4, ran 25% slower in bulk),
            # so the run is declined before its lanes are ever built.
            uniq = run.uniq
            n_uniq = (
                len(uniq)
                if uniq is not None
                else len({op[1] for op in run.ops if op[0] != OP_COMPUTE})
            )
            if n_uniq * 4 > n:
                self.demoted.add(run)
                self.runs_declined += 1
                return start, deadline
        elif deadline < 0 and hl.unobserved():
            self._execute_unobserved(thread, run)
            return start + n, deadline
        self.runs_bulk += 1
        if run.uniq is None:
            run.materialize()
        costed = self._costed(run)
        base = costed.base
        clock = thread.clock
        clock0 = clock._now_ns
        node_id = thread.node_id
        copies = self._copies_by_node[node_id]
        objects = self._objects
        uniq = run.uniq
        u_wops = run.u_wops
        records: list = [None] * len(uniq)

        interp = self.interp
        # The first-touch half of hlrc's dispatch plan (the segment gate
        # admits no other kind of hook; () without hooks).
        on_first_touch = hl._on_first_touch
        if not hooks:
            # ---- precheck: classify every distinct object once -------
            # Coherent objects (valid or home copy, twin already in
            # place for cache writes) pay no protocol cost inside the
            # run, so they need *no* checkpoint at all — their summary
            # bookkeeping is deferred to the finalize pass, which builds
            # summaries in first-touch order with exact timestamps.
            # Only objects that must fault or twin keep scalar
            # checkpoints (the precheck over-approximates: a prefetch
            # bundle may satisfy a later checkpoint, which then probes
            # fresh state and simply skips the fault).
            u_first = run.u_first
            u_firstw = run.u_firstw
            slow: list = []
            for k, (oid, wo) in enumerate(zip(uniq, u_wops)):
                record = copies.get(oid)
                if record is None:
                    if objects[oid].home_node == node_id:
                        # Home copies materialize lazily at zero cost.
                        record = CopyRecord(oid, _HOME)
                        copies[oid] = record
                elif record.real_state is _INVALID:
                    record = None
                if record is None:
                    # Must fault: first access, and first write if later.
                    jf = u_first[k]
                    jw = u_firstw[k]
                    slow.append((jf, k, True, jw == jf))
                    if jw > jf:
                        slow.append((jw, k, False, True))
                    continue
                records[k] = record
                if wo and record.real_state is not _HOME and not record.has_twin:
                    slow.append((u_firstw[k], k, False, True))

            if not slow and (deadline < 0 or clock0 + base[n] < deadline):
                if self._strikes:
                    self._strikes.pop(run, None)
                # ---- all-fast path -----------------------------------
                # Zero protocol work and no timer landing inside the
                # run: the clock advance is one prefix sum and the
                # interval bookkeeping one pass over distinct objects
                # with precomputed timestamps.
                cpu = thread.cpu
                abusy_n = costed.abusy[n]
                cpu.access_ns += abusy_n
                cpu.compute_ns += base[n] - abusy_n
                clock._now_ns = clock0 + base[n]
                interval = thread.current_interval
                written = interval.written
                tid = thread.thread_id
                reads = interval.reads
                writes = interval.writes
                first_ns = interval.first_ns
                last_ns = interval.last_ns
                fast_lanes = zip(
                    uniq,
                    run.u_reads,
                    run.u_writes,
                    run.u_welems,
                    u_wops,
                    costed.first_base,
                    costed.last_base,
                    records,
                )
                for oid, r, w, we, wo, fb, lb, record in fast_lanes:
                    if oid in last_ns:
                        reads[oid] += r
                        writes[oid] += w
                    else:
                        reads[oid] = r
                        writes[oid] = w
                        first_ns[oid] = clock0 + fb
                    last_ns[oid] = clock0 + lb
                    if w:
                        written.add(oid)
                        if record.real_state is not _HOME:
                            obj = objects[oid]
                            if obj.is_array:
                                wb = we * obj.jclass.element_size
                            else:
                                wb = wo * obj.jclass.instance_size
                            record.dirty_bytes = min(
                                record.dirty_bytes + wb, obj.size_bytes
                            )
                            writers = record.writers
                            if writers is None:
                                record.writers = {tid}
                            else:
                                writers.add(tid)
                return start + n, deadline
            self._maybe_demote(run, len(slow), len(uniq))
            slow.sort()
            checkpoints = slow
            defer = True
        else:
            # Hooks must observe every interval-first touch at its exact
            # access instant, so the full checkpoint lane stays engaged
            # and summaries are created in-walk.
            if hl._batch_primes:
                # decide_batch lane: stateless sampling backends batch
                # this run's distinct-object decisions up front (host-
                # side cache only; simulated costs are unchanged, so
                # vector and scalar replay stay byte-identical).
                run_objs = [objects[oid] for oid in uniq]
                for prime in hl._batch_primes:
                    prime(run_objs)
            checkpoints = run.checkpoints()
            defer = False

        # ---- checkpointed walk ---------------------------------------
        abusy = costed.abusy
        ops = run.ops
        cpu = thread.cpu
        tid = thread.thread_id
        costs = self.costs
        interval = thread.current_interval
        mig = interp.migration_engine
        mig_pending = mig._pending if mig is not None else None
        publish_pc = mig_pending is not None or deadline >= 0

        extra = 0
        ev_key: list[int] = []
        ev_cum: list[int] = []

        n_cps = len(checkpoints)
        ci = 0
        pos = 0
        dl = deadline
        while pos < n:
            nxt = checkpoints[ci][0] if ci < n_cps else n
            if pos < nxt:
                # Fast lane [pos, nxt): guaranteed hits / pure compute.
                fire_at = -1
                if dl >= 0:
                    target = dl - clock0 - extra
                    if base[nxt] >= target:
                        j = bisect_left(base, target) - 1
                        if j < pos:
                            j = pos
                        if j < nxt:
                            fire_at = j
                end = nxt if fire_at < 0 else fire_at + 1
                busy = abusy[end] - abusy[pos]
                cpu.access_ns += busy
                cpu.compute_ns += base[end] - base[pos] - busy
                clock._now_ns = clock0 + extra + base[end]
                pos = end
                if fire_at >= 0:
                    dl, extra = self._fire_timers(
                        thread, start + pos, dl, 2 * fire_at + 1, ev_key, ev_cum, extra
                    )
                    if mig_pending and tid in mig_pending:
                        self._finalize(thread, run, costed, records, pos, clock0, ev_key, ev_cum)
                        mig.maybe_migrate(thread)
                        return start + pos, dl
                continue

            # Slow lane: one checkpoint op, scalar protocol verbatim.
            c, k, first_access, check_write = checkpoints[ci]
            ci += 1
            cpu.access_ns += abusy[c + 1] - abusy[c]
            busy_clock = clock0 + extra + base[c + 1]
            clock._now_ns = busy_clock
            oid = ops[c][1]
            if publish_pc:
                # The scalar loop publishes pc per op in these modes;
                # hooks and plan triggers may read it.
                thread.pc = start + c
            obj = None
            if first_access:
                record = copies.get(oid)
                if record is not None and record.real_state is not _INVALID:
                    faulted = False
                else:
                    obj = objects[oid]
                    if obj.home_node == node_id:
                        if record is None:
                            record = CopyRecord(oid, _HOME)
                            copies[oid] = record
                        faulted = False
                    else:
                        record = hl._fault_remote(thread, obj, record)
                        faulted = True
                records[k] = record
            else:
                record = records[k]
                faulted = False
            if check_write and record.real_state is not _HOME:
                if obj is None:
                    obj = objects[oid]
                if not record.has_twin:
                    twin_ns = obj.size_bytes * costs.twin_ns_per_byte
                    record.has_twin = True
                    cpu.protocol_ns += twin_ns
                    clock._now_ns += twin_ns
            in_op = clock._now_ns - busy_clock
            if in_op:
                extra += in_op
                ev_key.append(2 * c)
                ev_cum.append(extra)
            if first_access and not defer:
                now = clock._now_ns
                if oid not in interval.last_ns:
                    interval.reads[oid] = 0
                    interval.writes[oid] = 0
                    interval.first_ns[oid] = now
                    interval.last_ns[oid] = now
                    if obj is None:
                        obj = objects[oid]
                    for fast in on_first_touch:
                        fast(thread, obj, faulted)
                    delta = clock._now_ns - now
                    if delta:
                        extra += delta
                        ev_key.append(2 * c + 1)
                        ev_cum.append(extra)
            pos = c + 1
            # Post-op epilogue, mirroring the scalar loop's order:
            # deadline fire first, migration check second.
            if dl >= 0 and clock._now_ns >= dl:
                dl, extra = self._fire_timers(
                    thread, start + pos, dl, 2 * c + 1, ev_key, ev_cum, extra
                )
            if mig_pending and tid in mig_pending:
                self._finalize(thread, run, costed, records, pos, clock0, ev_key, ev_cum)
                mig.maybe_migrate(thread)
                return start + pos, dl

        self._finalize(thread, run, costed, records, n, clock0, ev_key, ev_cum)
        return start + n, dl

    # ------------------------------------------------------------------

    def _execute_unobserved(self, thread, run: AccessRun) -> None:
        """Replay a whole run with nothing observing it (no hook,
        observer, history, timer or pending migration; a plain network;
        :meth:`HomeBasedLRC.unobserved`).

        Only end state is visible then, and every cost is an integer, so
        the run is priced as sums: one pass over its distinct objects in
        first-touch order probes each copy once, materializes lazy home
        copies and refreshes faulted ones; the faults are charged in one
        :meth:`HomeBasedLRC.charge_faults`; written cache copies get
        their twin, dirty bytes and writer; the clock and CPU buckets
        move once.  A run that is not hot yet (a one-shot body) is
        priced from a transient :func:`lean_lane` that is never cached;
        a hot one uses its materialized lanes and cost arrays."""
        if run.uniq is None and not run.hot:
            busy, compute, uniq, (w_oids, w_welems, w_wops) = lean_lane(run.ops, self.costs)
            w_ks = range(len(w_oids))
            self.runs_lean += 1
        else:
            if run.uniq is None:
                run.materialize()
            costed = self._costed(run)
            busy = costed.abusy[-1]
            compute = costed.base[-1] - busy
            uniq = run.uniq
            w_oids, w_ks, w_welems, w_wops = run.w_oids, run.w_ks, run.u_welems, run.u_wops
            self.runs_bulk += 1
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
        cpu = thread.cpu
        twin_ns = 0
        if w_oids:
            twin_ns = self._apply_writes(thread, copies, w_oids, w_ks, w_welems, w_wops)
        cpu.access_ns += busy
        cpu.compute_ns += compute
        cpu.protocol_ns += twin_ns
        thread.clock._now_ns += busy + compute + twin_ns
        if faulted:
            self.hlrc.charge_faults(thread, faulted)
            self.faults_batched += len(faulted)

    def _apply_writes(self, thread, copies: dict, w_oids, w_ks, welems, wops) -> int:
        """Write bookkeeping of an unobserved run: the written set, and
        for each written cache copy its twin (first write this
        interval), dirty bytes and writer; returns the twin cost.
        ``w_oids[i]``'s written elements and write ops are
        ``welems[w_ks[i]]`` and ``wops[w_ks[i]]``."""
        objects = self._objects
        tid = thread.thread_id
        twin_per_byte = self.costs.twin_ns_per_byte
        thread.current_interval.written.update(w_oids)
        twin_ns = 0
        for oid, k in zip(w_oids, w_ks):
            record = copies[oid]
            if record.real_state is _HOME:
                continue
            obj = objects[oid]
            size = obj.size_bytes
            if not record.has_twin:
                record.has_twin = True
                twin_ns += size * twin_per_byte
            if obj.is_array:
                wb = welems[k] * obj.jclass.element_size
            else:
                wb = wops[k] * obj.jclass.instance_size
            record.dirty_bytes = min(record.dirty_bytes + wb, size)
            writers = record.writers
            if writers is None:
                record.writers = {tid}
            else:
                writers.add(tid)
        return twin_ns

    def _fire_timers(
        self,
        thread,
        pc: int,
        dl: int,
        key: int,
        ev_key: list[int],
        ev_cum: list[int],
        extra: int,
    ) -> tuple[int, int]:
        """Fire deadline timers at an op boundary (scalar post-op order:
        fires, trace record, deadline recompute); journals the fire cost
        as a post-instant extra."""
        interp = self.interp
        clock = thread.clock
        thread.pc = pc
        before = clock._now_ns
        for timer in interp.timers:
            timer.maybe_fire(thread)
        if dl > 0:
            interp.kernel.record(_TIMER_FIRE, clock._now_ns, thread.thread_id)
        dl = min(t.next_fire_ns(thread) for t in interp.timers)
        delta = clock._now_ns - before
        if delta:
            extra += delta
            ev_key.append(key)
            ev_cum.append(extra)
        return dl, extra

    def _finalize(
        self,
        thread,
        run: AccessRun,
        costed: _CostedRun,
        records: list,
        upto: int,
        clock0: int,
        ev_key: list[int],
        ev_cum: list[int],
    ) -> None:
        """Apply the fast-lane aggregates for ops ``[0, upto)`` to the
        interval state — summary counts, written set, dirty bytes,
        writers, and the exact per-object ``first_ns``/``last_ns``.

        Summaries the walk did not create (every object in deferred
        mode, i.e. when no hook needed the first-touch instant) are
        created here, iterating uniq order so the access dict gains
        entries in exactly the scalar loop's first-touch order."""
        interval = thread.current_interval
        written = interval.written
        objects = self._objects
        base = costed.base
        tid = thread.thread_id
        uniq = run.uniq
        reads = interval.reads
        writes = interval.writes
        first_ns = interval.first_ns
        last_ns = interval.last_ns
        if upto >= run.n_ops:
            # Full-run path: one zip pass over the precomputed lanes.
            # Extras are cumulative and keyed ascending, so ops before
            # the first journal entry see 0 and ops at/after the last
            # see the total — the bisect only runs for the band between.
            if ev_key:
                ev_lo = ev_key[0]
                ev_hi = ev_key[-1]
                ev_tot = ev_cum[-1]
            else:
                ev_lo = None
            lanes = zip(
                uniq,
                run.u_reads,
                run.u_writes,
                run.u_welems,
                run.u_wops,
                run.u_first,
                run.u_last,
                costed.first_base,
                costed.last_base,
                records,
            )
            for oid, r, w, we, wo, jf, li, fb, lb, record in lanes:
                k2 = 2 * li
                if ev_lo is None or k2 < ev_lo:
                    ex = 0
                elif k2 >= ev_hi:
                    ex = ev_tot
                else:
                    idx = bisect_right(ev_key, k2) - 1
                    ex = ev_cum[idx] if idx >= 0 else 0
                if oid in last_ns:
                    reads[oid] += r
                    writes[oid] += w
                else:
                    j2 = 2 * jf
                    if ev_lo is None or j2 < ev_lo:
                        exf = 0
                    elif j2 >= ev_hi:
                        exf = ev_tot
                    else:
                        idxf = bisect_right(ev_key, j2) - 1
                        exf = ev_cum[idxf] if idxf >= 0 else 0
                    reads[oid] = r
                    writes[oid] = w
                    first_ns[oid] = clock0 + exf + fb
                last_ns[oid] = clock0 + ex + lb
                if w:
                    written.add(oid)
                    if record.real_state is not _HOME:
                        obj = objects[oid]
                        if obj.is_array:
                            wb = we * obj.jclass.element_size
                        else:
                            wb = wo * obj.jclass.instance_size
                        record.dirty_bytes = min(
                            record.dirty_bytes + wb, obj.size_bytes
                        )
                        writers = record.writers
                        if writers is None:
                            record.writers = {tid}
                        else:
                            writers.add(tid)
            return
        else:
            # Partial (migration bail-out): rescan the executed prefix.
            # First-occurrence order over a prefix is a prefix of the
            # run's uniq order, so ``records`` indexes stay aligned.
            index: dict[int, int] = {}
            u_reads, u_writes, u_welems, u_wops = [], [], [], []
            u_first, u_last = [], []
            for j in range(upto):
                op = run.ops[j]
                code = op[0]
                if code == OP_COMPUTE:
                    continue
                oid = op[1]
                k = index.get(oid)
                if k is None:
                    k = len(index)
                    index[oid] = k
                    u_reads.append(0)
                    u_writes.append(0)
                    u_welems.append(0)
                    u_wops.append(0)
                    u_first.append(j)
                    u_last.append(j)
                else:
                    u_last[k] = j
                if code == OP_WRITE:
                    u_writes[k] += op[3]
                    u_welems[k] += op[2]
                    u_wops[k] += 1
                else:
                    u_reads[k] += op[3]
            n_uniq = len(index)
        for k in range(n_uniq):
            oid = uniq[k]
            w = u_writes[k]
            li = u_last[k]
            idx = bisect_right(ev_key, 2 * li) - 1
            ex = ev_cum[idx] if idx >= 0 else 0
            if oid in last_ns:
                reads[oid] += u_reads[k]
                writes[oid] += w
            else:
                jf = u_first[k]
                idxf = bisect_right(ev_key, 2 * jf) - 1
                exf = ev_cum[idxf] if idxf >= 0 else 0
                reads[oid] = u_reads[k]
                writes[oid] = w
                first_ns[oid] = clock0 + exf + base[jf + 1]
            last_ns[oid] = clock0 + ex + base[li + 1]
            if w:
                written.add(oid)
                record = records[k]
                if record.real_state is not _HOME:
                    obj = objects[oid]
                    if obj.is_array:
                        wb = u_welems[k] * obj.jclass.element_size
                    else:
                        wb = u_wops[k] * obj.jclass.instance_size
                    record.dirty_bytes = min(record.dirty_bytes + wb, obj.size_bytes)
                    writers = record.writers
                    if writers is None:
                        record.writers = {tid}
                    else:
                        writers.add(tid)
