"""Workload interface.

A workload owns three responsibilities:

1. :meth:`Workload.build` — define classes and allocate the shared
   object graph on a DJVM (homes reflect the steady state after
   JESSICA2's home-migration optimization: data lives with its dominant
   writer, matching the paper's experimental configuration where home
   migration is enabled), and spawn the threads.
2. :meth:`Workload.program` — produce each thread's program: a
   :class:`~repro.runtime.program.CompiledProgram` emitted as columns, or
   an iterable of op tuples.
3. Describe itself (:class:`WorkloadSpec`) for Table I-style reporting.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.runtime.djvm import DJVM


@dataclass(frozen=True)
class WorkloadSpec:
    """Table I-style characterization of a workload."""

    name: str
    data_set: str
    rounds: int
    granularity: str
    object_size: str


class Workload(abc.ABC):
    """Base class for benchmark workloads."""

    def __init__(self, n_threads: int, seed: int = 0) -> None:
        if n_threads < 1:
            raise ValueError(f"need >= 1 thread, got {n_threads}")
        self.n_threads = n_threads
        self.seed = seed
        self._djvm: DJVM | None = None

    @property
    def djvm(self) -> DJVM:
        """The DJVM this workload was built on (after build())."""
        if self._djvm is None:
            raise RuntimeError("call build() before using the workload")
        return self._djvm

    @abc.abstractmethod
    def spec(self) -> WorkloadSpec:
        """Descriptive characteristics (Table I row)."""

    @abc.abstractmethod
    def build(self, djvm: DJVM, *, placement: str | list[int] = "block") -> None:
        """Define classes, allocate the object graph, spawn threads.

        ``placement`` is "block", "round_robin", or an explicit
        thread->node list (e.g. from the TCM partitioner)."""

    @abc.abstractmethod
    def program(self, thread_id: int):
        """The program of one thread (a compiled program or an iterable of
        op tuples)."""

    def programs(self) -> dict[int, object]:
        """Programs of every thread."""
        return {t: self.program(t) for t in range(self.n_threads)}

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _spawn(self, djvm: DJVM, placement: str | list[int]) -> None:
        self._djvm = djvm
        djvm.spawn_threads(self.n_threads, placement=placement)

    def node_of(self, thread_id: int) -> int:
        """Node hosting a thread at build time (homes follow owners)."""
        return self.djvm.threads[thread_id].node_id

    @staticmethod
    def block_range(total: int, part: int, n_parts: int) -> range:
        """The ``part``-th of ``n_parts`` contiguous blocks of ``total``
        items (SPLASH-2's standard block decomposition)."""
        if not 0 <= part < n_parts:
            raise ValueError(f"part {part} out of range 0..{n_parts - 1}")
        lo = part * total // n_parts
        hi = (part + 1) * total // n_parts
        return range(lo, hi)
