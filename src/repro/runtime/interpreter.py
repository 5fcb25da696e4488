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
        timeshare_nodes: bool = True,
        keep_event_trace: bool = False,
        replay: str = "vector",
    ) -> None:
        if not threads:
            raise ValueError("interpreter needs at least one thread")
        if replay not in ("vector", "scalar"):
            raise ValueError(f"replay must be 'vector' or 'scalar', got {replay!r}")
        #: access replay mode: "vector" engages the one-pass replay engine
        #: (repro.runtime.vector) for unobserved segments; "scalar" forces
        #: per-op dispatch everywhere (the correctness oracle).
        self.replay = replay
        self._vector = None
        self.hlrc = hlrc
        self.threads = threads
        self.threads_by_id = {t.thread_id: t for t in threads}
        if len(self.threads_by_id) != len(threads):
            raise ValueError("duplicate thread ids")
        self.parties = barrier_parties if barrier_parties is not None else len(threads)
        self.costs = hlrc.costs
        #: single-core nodes (the paper's P4s): threads co-located on a
        #: node serialize their execution segments on its one core — the
        #: non-preemptive user-level threading regime of Kaffe.  Off =
        #: one core per thread (an idealized SMP node).
        self.timeshare_nodes = timeshare_nodes
        #: the discrete-event kernel every scheduling decision runs through.
        self.kernel = EventLoop(keep_trace=keep_event_trace)
        #: per-node core schedules (timesharing model), owned by the nodes.
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

    # ------------------------------------------------------------------

    def attach_programs(self, programs: dict[int, object]) -> None:
        """Attach and pre-decode an op iterable per thread id.

        Programs are compiled once into :class:`~repro.runtime.program.
        CompiledProgram` (dense op tuples + opcode array); the thread's
        ``pc`` then doubles as the resume cursor across scheduling
        points, replacing per-op generator resumption.
        """
        for thread in self.threads:
            if thread.thread_id not in programs:
                raise KeyError(f"no program for thread {thread.thread_id}")
            thread.program = prog.compile_program(programs[thread.thread_id])

    def run(self) -> None:
        """Execute every thread to completion by draining the event kernel."""
        for thread in self.threads:
            if thread.program is None:
                raise RuntimeError(f"thread {thread.thread_id} has no program attached")
            self.hlrc.open_interval(thread)
        kernel = self.kernel
        observers = self.hlrc.observers
        # Vector replay engages only when nothing observes the per-op
        # stream: a ``per_op`` observer (sanitizer, race detector)
        # consumes every access, so its presence forces the scalar
        # oracle path.
        if (
            self._vector is None
            and self.replay == "vector"
            and not any(o.per_op for o in observers)
        ):
            self._vector = VectorEngine(self)
            # The replay engine assumes structurally well-formed
            # programs (balanced CALL/RET, framed SETSLOT, paired
            # locks); hard-gate it on the staticflow IR verifier.
            # Verification is cached per compiled program, so reuse
            # across runs pays once.
            from repro.checks.staticflow.verifier import gate_program

            for thread in self.threads:
                gate_program(thread.program)
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
            if result is not None and self.timeshare_nodes:
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
        if self.timeshare_nodes:
            # The release processing ran on the last arriver's core.
            self._nodes[last.node_id].core.occupy_until(last.clock.now_ns)
        self._chain_migration_then_schedule(last)

    # ------------------------------------------------------------------

    def _run_until_sync(self, thread: SimThread) -> None:
        """Run one thread until it blocks, syncs, or finishes —
        serialized on its node's single core when timesharing is on."""
        if self.timeshare_nodes:
            # The node's core is busy until the cursor: the thread's
            # segment cannot start earlier.
            thread.clock.advance_to(self._nodes[thread.node_id].core.busy_until_ns)
        try:
            self._run_segment(thread)
        finally:
            if self.timeshare_nodes:
                # The segment occupied the core (a migration mid-segment
                # charges the remainder to the destination node).
                self._nodes[thread.node_id].core.occupy_until(thread.clock.now_ns)

    def _run_segment(self, thread: SimThread) -> None:
        """Execute ops until the next scheduling point.

        This is the simulator's innermost loop.  Everything touched per
        op is hoisted into locals, the thread's ``pc`` is the cursor
        into the compiled program (incremented before an op executes, as
        before), READ/WRITE/COMPUTE are inlined, synchronization ops go
        through a per-opcode dispatch table, and the timer/migration
        poll is skipped entirely unless such hooks are attached.  Timers
        cost one integer compare per op against their minimum
        ``next_fire_ns`` deadline.
        """
        program = thread.program
        assert program is not None
        if not isinstance(program, prog.CompiledProgram):
            # Direct attachment (tests poke thread.program): decode lazily.
            program = thread.program = prog.compile_program(program)
        ops = program.ops
        n_ops = program.n_ops
        i = thread.pc
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
        sync_dispatch = self._sync_dispatch
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
        # observe a run's intermediate states (observers, prefetcher, a
        # keyword hook), and then per run: not under a condition-driven
        # timer (deadline 0) or a pending migration.  The engine hands
        # first-touch entries each run's first touches and walks to
        # re-armed accesses and timer deadlines.  Everything else runs
        # on this loop.
        vec = self._vector
        vruns = None
        if vec is not None and self.hlrc.unobserved():
            vruns = program.vector_runs() or None
        start_i = i
        try:
            # ``thread.pc`` is only observed at scheduling points (sync
            # dispatch, timer/migration polls, interval close, errors),
            # so the cursor stays in the local ``i`` during straight-line
            # runs and is published right before any of those.
            while i < n_ops:
                if vruns is not None:
                    vr = vruns.get(i)
                    # A deadline of 0 asks for a call at every op
                    # boundary, and a pending migration plan needs
                    # per-op pc triggers.
                    if (
                        vr is not None
                        and next_deadline
                        and not (mig_pending and tid in mig_pending)
                    ):
                        next_deadline = vec.execute(thread, vr, i, next_deadline)
                        i += vr.n_ops
                        continue
                op = ops[i]
                i += 1
                code = op[0]
                if code <= prog.OP_WRITE:  # READ / WRITE
                    access(thread, op[1], code == prog.OP_WRITE, op[2], op[3], op[4])
                elif code == prog.OP_COMPUTE:
                    v = op[1]
                    if scale_is_unity and type(v) is int and v >= 0:
                        ns = v
                    else:
                        ns = scaled_compute(v)
                    cpu.compute_ns += ns
                    clock._now_ns += ns
                elif code == prog.OP_CALL:
                    stack.push(Frame(op[1], op[2], dict(op[3])))
                    cpu.access_ns += frame_push_ns
                    clock._now_ns += frame_push_ns
                elif code == prog.OP_RET:
                    stack.pop()
                    cpu.access_ns += frame_pop_ns
                    clock._now_ns += frame_pop_ns
                elif code == prog.OP_SETSLOT:
                    top = stack.top
                    if top is None:
                        thread.pc = i
                        raise RuntimeError(
                            f"thread {tid}: SETSLOT at pc {i} with empty stack"
                        )
                    top.set_slot(op[1], op[2])
                    cpu.access_ns += SETSLOT_NS
                    clock._now_ns += SETSLOT_NS
                elif code <= prog.OP_BARRIER:  # ACQUIRE / RELEASE / BARRIER
                    thread.pc = i
                    if sync_dispatch[code](thread, op):
                        if timers and clock._now_ns >= next_deadline:
                            for timer in timers:
                                timer.maybe_fire(thread)
                            if next_deadline > 0:
                                record(timer_fire, clock._now_ns, tid)
                    return  # yield so sync ordering tracks simulated time
                else:
                    thread.pc = i
                    raise ValueError(f"unknown opcode {code} at pc {i}")
                if poll_hooks:
                    thread.pc = i
                    if timers and clock._now_ns >= next_deadline:
                        for timer in timers:
                            timer.maybe_fire(thread)
                        if next_deadline > 0:
                            record(timer_fire, clock._now_ns, tid)
                        next_deadline = min(t.next_fire_ns(thread) for t in timers)
                    if mig_pending and tid in mig_pending:
                        mig.maybe_migrate(thread)
        finally:
            thread.pc = i
            self.ops_executed += i - start_i
        # Program exhausted: close the final interval.
        self.hlrc.close_interval(thread, "end")
        thread.state = ThreadState.DONE

    # -- synchronization handlers (dispatch targets) -------------------
    # Each returns True when the post-op hooks should run for the
    # synchronizing thread (i.e. the op completed without blocking it).

    def _do_acquire(self, thread: SimThread, op: tuple) -> bool:
        if self.hlrc.acquire(thread, op[1]):
            return True
        thread.state = ThreadState.WAITING_LOCK
        thread.waiting_lock_id = op[1]
        return False

    def _do_release(self, thread: SimThread, op: tuple) -> bool:
        unblocked = self.hlrc.release(thread, op[1], self.threads_by_id)
        if unblocked is not None:
            other = self.threads_by_id[unblocked]
            other.state = ThreadState.RUNNABLE
            other.waiting_lock_id = None
        return True

    def _do_barrier(self, thread: SimThread, op: tuple) -> bool:
        barrier_id = op[1]
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
