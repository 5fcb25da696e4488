"""Simulated Java threads."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterator

from repro.dsm.intervals import IntervalRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.program import CompiledProgram
from repro.runtime.stack import JavaStack
from repro.sim.clock import SimClock
from repro.sim.costs import CpuAccounting


class ThreadState(enum.Enum):
    """Lifecycle states of a simulated thread."""
    RUNNABLE = "runnable"
    WAITING_BARRIER = "waiting_barrier"
    WAITING_LOCK = "waiting_lock"
    DONE = "done"


class SimThread:
    """One application thread of the distributed JVM.

    Owns its simulated clock (advanced by every op it executes), a CPU
    accounting record broken down by cost category, a Java stack, and
    the HLRC interval state the protocol engine maintains.
    """

    __slots__ = (
        "thread_id",
        "node_id",
        "clock",
        "cpu",
        "stack",
        "state",
        "pc",
        "interval_counter",
        "current_interval",
        "program",
        "waiting_barrier_id",
        "waiting_lock_id",
        "migrations",
    )

    def __init__(self, thread_id: int, node_id: int) -> None:
        self.thread_id = thread_id
        self.node_id = node_id
        self.clock = SimClock()
        self.cpu = CpuAccounting()
        self.stack = JavaStack()
        self.state = ThreadState.RUNNABLE
        #: current op index ("bytecode PC") within the program; doubles as
        #: the interpreter's resume cursor across scheduling points.
        self.pc = 0
        #: HLRC interval state, maintained by the protocol engine.
        self.interval_counter = 0
        self.current_interval: IntervalRecord = IntervalRecord(thread_id, 0)
        #: compiled program (or raw op iterable), attached by the interpreter.
        self.program: "CompiledProgram | Iterator | None" = None
        #: barrier the thread is parked on (when WAITING_BARRIER).
        self.waiting_barrier_id: int | None = None
        #: lock the thread is parked on (when WAITING_LOCK).
        self.waiting_lock_id: int | None = None
        #: number of completed migrations.
        self.migrations = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimThread(#{self.thread_id} on node {self.node_id}, "
            f"{self.state.value}, t={self.clock.now_ms:.3f} ms)"
        )
