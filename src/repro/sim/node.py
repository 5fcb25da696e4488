"""A cluster node: identity, CPU-time accounting, and core occupancy.

Threads are the unit of execution in the simulator; a node aggregates
the CPU accounting of the threads it hosts, owns a local heap (the heap
object is attached by the DJVM at boot, keeping this module free of
upward dependencies), and owns the :class:`CoreSchedule` that serializes
co-located threads on its single core — the timesharing state the
interpreter and the migration engine previously tracked in parallel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.costs import CpuAccounting

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.heap.heap import LocalHeap


class CoreSchedule:
    """Busy-cursor schedule of one node's single core.

    The paper's Gideon 300 nodes are single-core P4s running Kaffe's
    non-preemptive user-level threads: execution segments of co-located
    threads serialize on the one core.  The schedule is a single busy
    cursor — a segment may start no earlier than ``busy_until_ns`` and,
    once run, pushes the cursor to its finish time.  A thread that
    migrates mid-segment charges the remainder to the *destination*
    node's schedule (the interpreter consults the thread's node at
    segment end, not start).
    """

    __slots__ = ("busy_until_ns", "segments")

    def __init__(self) -> None:
        #: simulated time until which the core is occupied.
        self.busy_until_ns = 0
        #: number of execution segments charged to this core.
        self.segments = 0

    def occupy_until(self, end_ns: int) -> None:
        """Charge a completed segment: the core is busy through ``end_ns``."""
        if end_ns > self.busy_until_ns:
            self.busy_until_ns = end_ns
        self.segments += 1

    def reset(self) -> None:
        """Clear the schedule (a fresh run)."""
        self.busy_until_ns = 0
        self.segments = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CoreSchedule(busy_until={self.busy_until_ns} ns, segments={self.segments})"


class Node:
    """One machine in the simulated cluster."""

    def __init__(self, node_id: int) -> None:
        if node_id < 0:
            raise ValueError(f"node id must be >= 0, got {node_id}")
        self.node_id = node_id
        self.cpu = CpuAccounting()
        #: single-core occupancy schedule (used when timesharing is on).
        self.core = CoreSchedule()
        #: attached by the DJVM at boot.
        self.heap: "LocalHeap | None" = None
        #: thread ids currently hosted here (maintained by the DJVM).
        self.thread_ids: set[int] = set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.node_id}, threads={sorted(self.thread_ids)})"
