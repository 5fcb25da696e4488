"""The interpreter/scheduler: executes thread programs over the HLRC
protocol engine with simulated-time accounting.

Scheduling model: the interpreter drives a deterministic discrete-event
kernel (:class:`~repro.sim.events.EventLoop`).  Every runnable thread
has exactly one ``SEGMENT_END`` event pending, scheduled at the time the
thread became runnable; dispatching it executes the thread's next
segment — ops run without preemption until a synchronization op (legal
under lazy release consistency: remote writes only become visible at
synchronization anyway) — and then schedules successor events.  Because
events pop in ``(time_ns, seq)`` order and newly-runnable threads are
scheduled in thread-table order, the event kernel reproduces the legacy
"resume the runnable thread with the smallest clock" rule exactly,
including its tie-break.

Barriers are event-driven: the last arriver parks like every other
participant and schedules a ``BARRIER_RELEASE`` event whose dispatch
aligns clocks, distributes write notices, and wakes the waiters.
Post-synchronization migration checks route through ``MIGRATION_CHECK``
events chained ahead of the thread's next segment.

Timer hooks (stack sampler, online rebalancer) register absolute
deadlines through ``next_fire_ns``: the hot loop compares the running
thread's clock against the minimum deadline — one integer compare per
op — and only calls into the hooks when a deadline passes (fires are
recorded into the kernel trace as ``TIMER_FIRE`` events).  A
condition-driven hook answers 0 while it still wants to look at every
op boundary: a deadline of 0 is always due and records no fire.

Access replay has two routes.  The per-op loop here is the oracle and
runs everything observed.  When nothing on the protocol side observes
more than the points the engine stops at (:meth:`HomeBasedLRC.
unobserved`), each access run with no condition-driven timer (deadline
0) and no pending migration for its thread goes to
:class:`~repro.runtime.vector.VectorEngine`, which replays the whole
run in one pass and walks to its clock stops: re-armed accesses and
timer fires, each at the clock and pc the per-op loop would show.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.dsm.hlrc import HomeBasedLRC
from repro.runtime import program as prog
from repro.runtime.stack import Frame
from repro.runtime.thread import SimThread, ThreadState
from repro.runtime.vector import VectorEngine
from repro.sim.events import Event, EventKind, EventLoop

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.migration import MigrationEngine

#: cost of a SETSLOT (a store to the current frame), nanoseconds.
SETSLOT_NS = 2


class TimerHook(Protocol):
    """A profiler component driven by per-thread simulated timers.

    The interpreter calls :meth:`maybe_fire` only at op boundaries where
    the thread's clock has reached the minimum :meth:`next_fire_ns` over
    the attached hooks.  Inside an access run the vector engine makes
    the same calls at the same ops, with the clock and ``thread.pc`` the
    per-op loop would show, but after the run's first touches have gone
    to the profiler hooks: a timer must not change what a hook's
    first-touch entry decides (sampling rates), and one that fires at a
    positive deadline must not leave a migration pending for its own
    thread (the per-op loop would migrate inside the run; the engine
    raises :class:`~repro.runtime.vector.WalkedRunMigrationError`).  A
    condition-driven timer — deadline 0 — keeps runs on the per-op loop
    and may do either.
    """

    def maybe_fire(self, thread: SimThread) -> None:
        """Fire if the thread's clock passed the component's next deadline."""
        ...

    def next_fire_ns(self, thread: SimThread) -> int:
        """Absolute simulated deadline (ns) of the next fire for
        ``thread``: 0 asks for a call at every op boundary, a far-future
        value (``1 << 62``) for none."""
        ...


class Interpreter:
    """Executes a set of thread programs to completion."""

    def __init__(
        self,
        hlrc: HomeBasedLRC,
        threads: list[SimThread],
        *,
        barrier_parties: int | None = None,
        keep_event_trace: bool = False,
        replay: str = "vector",
    ) -> None:
        if not threads:
            raise ValueError("interpreter needs at least one thread")
        if replay not in ("vector", "scalar"):
            raise ValueError(f"replay must be 'vector' or 'scalar', got {replay!r}")
        self.hlrc = hlrc
        self.threads = threads
        self.threads_by_id = {t.thread_id: t for t in threads}
        if len(self.threads_by_id) != len(threads):
            raise ValueError("duplicate thread ids")
        self.parties = barrier_parties if barrier_parties is not None else len(threads)
        self.costs = hlrc.costs
        #: the discrete-event kernel every scheduling decision runs through.
        self.kernel = EventLoop(keep_trace=keep_event_trace)
        #: per-node core schedules, owned by the nodes: nodes are single
        #: core (the paper's P4s), so threads co-located on a node
        #: serialize their execution segments on its one core — the
        #: non-preemptive user-level threading regime of Kaffe.
        self._nodes = hlrc.cluster.nodes
        #: thread ids with a SEGMENT_END / MIGRATION_CHECK event in flight.
        self._scheduled: set[int] = set()
        #: timer-driven profiler components (deadline API or per-op polled).
        self.timers: list[TimerHook] = []
        #: migration engine checks (thread_id -> pending), set by MigrationEngine.
        self.migration_engine: "MigrationEngine | None" = None
        self.ops_executed = 0
        #: opcode -> bound handler for synchronization ops; indexed by the
        #: hot loop so ACQUIRE/RELEASE/BARRIER share one dispatch site.
        self._sync_dispatch = {
            prog.OP_ACQUIRE: self._do_acquire,
            prog.OP_RELEASE: self._do_release,
            prog.OP_BARRIER: self._do_barrier,
        }
        # "vector" engages the one-pass replay engine for unobserved
        # segments; "scalar" runs every op on the per-op loop (the oracle).
        self._vector = VectorEngine(self) if replay == "vector" else None

    # ------------------------------------------------------------------

    def attach_programs(self, programs: dict[int, object]) -> None:
        """Attach and pre-decode an op iterable per thread id.

        Programs are compiled once into :class:`~repro.runtime.program.
        CompiledProgram` (opcode bytes + int columns); the thread's
        ``pc`` then doubles as the resume cursor across scheduling
        points, replacing per-op generator resumption.
        """
        for thread in self.threads:
            if thread.thread_id not in programs:
                raise KeyError(f"no program for thread {thread.thread_id}")
            thread.program = prog.compile_program(programs[thread.thread_id])

    def run(self) -> None:
        """Execute every thread to completion by draining the event kernel.

        Every compiled program passes the staticflow IR verifier's
        structural gate first (balanced CALL/RET, framed SETSLOT, paired
        locks), on both replay routes, so a malformed program fails the
        same way whichever route would run it.  Verification is cached
        per compiled program, so reuse across runs pays once."""
        from repro.checks.staticflow.verifier import gate_program

        for thread in self.threads:
            if thread.program is None:
                raise RuntimeError(f"thread {thread.thread_id} has no program attached")
            if isinstance(thread.program, prog.CompiledProgram):
                gate_program(thread.program)
        for thread in self.threads:
            self.hlrc.open_interval(thread)
        kernel = self.kernel
        observers = self.hlrc.observers
        self._schedule_runnable()
        while True:
            event = kernel.pop()
            if event is None:
                break
            if observers:
                for observer in observers:
                    observer.on_event_pop(kernel.now_ns, event)
            callback = event.callback
            if callback is not None:
                callback(event)
        waiting = [
            t
            for t in self.threads
            if t.state in (ThreadState.WAITING_BARRIER, ThreadState.WAITING_LOCK)
        ]
        if waiting:
            raise RuntimeError(
                "deadlock: threads "
                f"{sorted(t.thread_id for t in waiting)} wait on "
                "synchronization no one else will complete"
            )
        for observer in observers:
            observer.on_run_end(self.threads)

    # -- event producers / consumers -----------------------------------

    def _schedule_runnable(self) -> None:
        """Give every runnable thread without an in-flight event its
        SEGMENT_END.

        Scanning ``self.threads`` in table order makes equal-time events
        pop in thread order — the legacy scheduler's tie-break rule.
        The event is stamped with the time the thread became runnable
        (its clock), which is the key the legacy loop minimized over.
        """
        kernel = self.kernel
        scheduled = self._scheduled
        callback = self._on_segment_end
        for thread in self.threads:
            if thread.state is ThreadState.RUNNABLE and thread.thread_id not in scheduled:
                scheduled.add(thread.thread_id)
                kernel.schedule(
                    EventKind.SEGMENT_END,
                    thread.clock.now_ns,
                    actor=thread.thread_id,
                    callback=callback,
                )

    def _on_segment_end(self, event: Event) -> None:
        """Dispatch a thread's segment: run it to its next scheduling
        point, then schedule successor events."""
        tid = event.actor
        self._scheduled.discard(tid)
        thread = self.threads_by_id[tid]
        if thread.state is not ThreadState.RUNNABLE:  # pragma: no cover - guard
            return
        self._run_until_sync(thread)
        self._chain_migration_then_schedule(thread)

    def _chain_migration_then_schedule(self, thread: SimThread) -> None:
        """Epilogue of a segment (or barrier release): chain a
        MIGRATION_CHECK ahead of the thread's next segment when a plan is
        pending, then top up SEGMENT_END events for every runnable thread."""
        mig = self.migration_engine
        if (
            mig is not None
            and thread.state is ThreadState.RUNNABLE
            and mig.has_pending(thread.thread_id)
        ):
            self._scheduled.add(thread.thread_id)
            self.kernel.schedule(
                EventKind.MIGRATION_CHECK,
                thread.clock.now_ns,
                actor=thread.thread_id,
                callback=self._on_migration_check,
            )
        self._schedule_runnable()

    def _on_migration_check(self, event: Event) -> None:
        """Evaluate a pending migration plan at a scheduling point."""
        tid = event.actor
        self._scheduled.discard(tid)
        thread = self.threads_by_id[tid]
        mig = self.migration_engine
        if mig is not None and thread.state is ThreadState.RUNNABLE:
            result = mig.maybe_migrate(thread)
            if result is not None:
                # The handoff occupied the (destination) core, exactly as
                # the legacy inline path charged it at segment end.
                self._nodes[thread.node_id].core.occupy_until(thread.clock.now_ns)
        self._schedule_runnable()

    def _on_barrier_release(self, event: Event) -> None:
        """Complete a barrier episode: release, wake waiters, and run the
        last arriver's post-synchronization hooks (legacy order)."""
        barrier_id = event.actor
        last = self.threads_by_id[event.data]
        self.hlrc.barrier_release(self.threads_by_id, barrier_id)
        for other in self.threads:
            if (
                other.state is ThreadState.WAITING_BARRIER
                and other.waiting_barrier_id == barrier_id
            ):
                other.state = ThreadState.RUNNABLE
                other.waiting_barrier_id = None
        for timer in self.timers:
            timer.maybe_fire(last)
        # The release processing ran on the last arriver's core.
        self._nodes[last.node_id].core.occupy_until(last.clock.now_ns)
        self._chain_migration_then_schedule(last)

    # ------------------------------------------------------------------

    def _run_until_sync(self, thread: SimThread) -> None:
        """Run one thread until it blocks, syncs, or finishes —
        serialized on its node's single core."""
        # The node's core is busy until the cursor: the thread's segment
        # cannot start earlier.
        thread.clock.advance_to(self._nodes[thread.node_id].core.busy_until_ns)
        try:
            self._run_segment(thread)
        finally:
            # The segment occupied the core (a migration mid-segment
            # charges the remainder to the destination node).
            self._nodes[thread.node_id].core.occupy_until(thread.clock.now_ns)

    def _run_segment(self, thread: SimThread) -> None:
        """Execute the thread's current segment: its body, then its sync
        op — the next scheduling point — or, for the last segment, the
        close of the final interval.

        This is the simulator's innermost loop.  Everything touched per
        op is hoisted into locals, the cursor ``i`` runs over the body's
        span of the program's store (the global pc is ``i + delta``;
        incremented before an op executes, as before), READ/WRITE/COMPUTE
        are inlined, synchronization ops go through a per-opcode
        dispatch table, and the timer/migration poll is skipped entirely
        unless such hooks are attached.  Timers cost one integer compare
        per op against their minimum ``next_fire_ns`` deadline.
        """
        program = thread.program
        assert program is not None
        if not isinstance(program, prog.CompiledProgram):
            # Direct attachment (tests poke thread.program): decode lazily.
            program = thread.program = prog.compile_program(program)
        seg = program.segment_at(thread.pc)
        lo = program.body_lo[program.seg_body[seg]]
        end = program.body_hi[program.seg_body[seg]]
        # store position + delta = pc
        delta = program.seg_base[seg] - lo
        codes = program._codes
        side = program._side
        i = thread.pc - delta
        # Hot-path locals: attribute lookups hoisted out of the loop.
        costs = self.costs
        access = self.hlrc.access
        clock = thread.clock
        cpu = thread.cpu
        stack = thread.stack
        frame_push_ns = costs.frame_push_ns
        frame_pop_ns = costs.frame_pop_ns
        scale_is_unity = costs.compute_scale == 1.0
        scaled_compute = costs.scaled_compute
        timers = self.timers
        mig = self.migration_engine
        mig_pending = mig._pending if mig is not None else None
        tid = thread.thread_id
        # -1 = no timers.
        next_deadline = min(t.next_fire_ns(thread) for t in timers) if timers else -1
        poll_hooks = bool(timers) or mig is not None
        record = self.kernel.record
        timer_fire = EventKind.TIMER_FIRE
        # Vector replay engages only when nothing on hlrc's side can
        # observe a run's intermediate states (an observer of accesses
        # or faults, a prefetcher, a keyword hook), and then per run:
        # not under a condition-driven timer (deadline 0) or a pending
        # migration.  The engine hands first-touch entries each run's
        # first touches and walks to re-armed accesses and timer
        # deadlines.  Everything else runs on this loop.
        vec = self._vector
        vruns = None
        if vec is not None and self.hlrc.unobserved():
            vruns = program.store_runs() or None
        # Ops read per op: from memoryviews when the one pass takes the
        # runs, from the program's lists when every op runs here.
        args, n_elems, repeat, elem_off = program._views if vruns else program.lists()
        start_i = i
        try:
            # ``thread.pc`` is only observed at scheduling points (sync
            # dispatch, timer/migration polls, interval close, errors),
            # so the cursor stays in the local ``i`` during straight-line
            # runs and is published right before any of those.
            while i < end:
                if vruns is not None:
                    run = vruns.get(i)
                    # A deadline of 0 asks for a call at every op
                    # boundary, and a pending migration plan needs
                    # per-op pc triggers.
                    if (
                        run is not None
                        and next_deadline
                        and not (mig_pending and tid in mig_pending)
                    ):
                        next_deadline = vec.execute(thread, run[0], i + delta, next_deadline)
                        i += run[1]
                        continue
                code = codes[i]
                if code <= prog.OP_WRITE:  # READ / WRITE
                    access(thread, args[i], code == prog.OP_WRITE, n_elems[i], repeat[i], elem_off[i])
                    i += 1
                elif code == prog.OP_COMPUTE:
                    v = args[i]
                    i += 1
                    ns = v if scale_is_unity and v >= 0 else scaled_compute(v)
                    cpu.compute_ns += ns
                    clock._now_ns += ns
                elif code == prog.OP_CALL:
                    method, refs = side[i]
                    stack.push(Frame(method, n_elems[i], dict(refs)))
                    i += 1
                    cpu.access_ns += frame_push_ns
                    clock._now_ns += frame_push_ns
                elif code == prog.OP_RET:
                    i += 1
                    stack.pop()
                    cpu.access_ns += frame_pop_ns
                    clock._now_ns += frame_pop_ns
                else:  # SETSLOT (a body holds no sync op)
                    top = stack.top
                    slot = args[i]
                    obj_id = None if i in side else n_elems[i]
                    i += 1
                    if top is None:
                        thread.pc = i + delta
                        raise RuntimeError(
                            f"thread {tid}: SETSLOT at pc {thread.pc} with empty stack"
                        )
                    top.set_slot(slot, obj_id)
                    cpu.access_ns += SETSLOT_NS
                    clock._now_ns += SETSLOT_NS
                if poll_hooks:
                    thread.pc = i + delta
                    if timers and clock._now_ns >= next_deadline:
                        for timer in timers:
                            timer.maybe_fire(thread)
                        if next_deadline > 0:
                            record(timer_fire, clock._now_ns, tid)
                        next_deadline = min(t.next_fire_ns(thread) for t in timers)
                    if mig_pending and tid in mig_pending:
                        mig.maybe_migrate(thread)
            code = program.seg_code[seg]
            if code != prog.NO_SYNC:  # ACQUIRE / RELEASE / BARRIER
                i += 1
                thread.pc = i + delta
                if self._sync_dispatch[code](thread, program.seg_arg[seg]):
                    if timers and clock._now_ns >= next_deadline:
                        for timer in timers:
                            timer.maybe_fire(thread)
                        if next_deadline > 0:
                            record(timer_fire, clock._now_ns, tid)
                return  # yield so sync ordering tracks simulated time
        finally:
            thread.pc = i + delta
            self.ops_executed += i - start_i
        # Program exhausted: close the final interval.
        self.hlrc.close_interval(thread, "end")
        thread.state = ThreadState.DONE

    # -- synchronization handlers (dispatch targets) -------------------
    # Each returns True when the post-op hooks should run for the
    # synchronizing thread (i.e. the op completed without blocking it).

    def _do_acquire(self, thread: SimThread, lock_id: int) -> bool:
        if self.hlrc.acquire(thread, lock_id):
            return True
        thread.state = ThreadState.WAITING_LOCK
        thread.waiting_lock_id = lock_id
        return False

    def _do_release(self, thread: SimThread, lock_id: int) -> bool:
        unblocked = self.hlrc.release(thread, lock_id, self.threads_by_id)
        if unblocked is not None:
            other = self.threads_by_id[unblocked]
            other.state = ThreadState.RUNNABLE
            other.waiting_lock_id = None
        return True

    def _do_barrier(self, thread: SimThread, barrier_id: int) -> bool:
        last = self.hlrc.barrier_arrive(thread, barrier_id, self.parties)
        # Every participant parks — the last arriver too; the episode
        # completes when its BARRIER_RELEASE event dispatches.
        thread.state = ThreadState.WAITING_BARRIER
        thread.waiting_barrier_id = barrier_id
        if last:
            self.kernel.schedule(
                EventKind.BARRIER_RELEASE,
                thread.clock.now_ns,
                actor=barrier_id,
                data=thread.thread_id,
                callback=self._on_barrier_release,
            )
        return False
