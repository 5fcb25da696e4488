"""Synthetic workloads with known ground-truth sharing, used by tests
and ablations.

* :class:`GroupSharingWorkload` — threads form disjoint groups; each
  group shares a pool of group-private objects, every thread also has a
  private pool, and an optional global pool is shared by everyone.  The
  ground-truth TCM is block-diagonal (plus a uniform floor from the
  global pool), so profiler accuracy and placement quality can be
  checked exactly.
* :class:`UniformSharingWorkload` — every thread touches every object;
  the TCM is flat.  A degenerate case for metric sanity checks.
* :class:`RacyCounterWorkload` — threads hammer one shared counter
  object, either under a distributed lock (``locked=True``: every
  conflicting pair is ordered by release->acquire edges) or bare
  (``locked=False``: a seeded, deliberate data race).  Ground truth for
  the happens-before race detector (:mod:`repro.checks.racedetect`).
"""

from __future__ import annotations

import numpy as np

from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.util.rng import seeded_rng
from repro.workloads.base import Workload, WorkloadSpec


class GroupSharingWorkload(Workload):
    """Block-structured sharing with exact ground truth."""

    def __init__(
        self,
        n_threads: int = 8,
        *,
        group_size: int = 2,
        objects_per_group: int = 64,
        private_per_thread: int = 32,
        global_objects: int = 0,
        object_size: int = 128,
        rounds: int = 4,
        reads_per_object: int = 3,
        group_writes: bool = False,
        seed: int = 0,
    ) -> None:
        super().__init__(n_threads=n_threads, seed=seed)
        if group_size < 1 or n_threads % group_size != 0:
            raise ValueError(
                f"group_size {group_size} must divide n_threads {n_threads}"
            )
        self.group_size = group_size
        self.objects_per_group = objects_per_group
        self.private_per_thread = private_per_thread
        self.global_objects = global_objects
        self.object_size = object_size
        self.rounds = rounds
        self.reads_per_object = reads_per_object
        #: producer/consumer mode: each group's first thread *writes* the
        #: group objects every round, so partners placed apart incur
        #: recurring invalidation + re-fetch traffic (not just one cold
        #: fault) — the regime where thread placement actually pays.
        self.group_writes = group_writes
        self.group_pool: list[list[int]] = []
        self.private_pool: list[list[int]] = []
        self.global_pool: list[int] = []

    def spec(self) -> WorkloadSpec:
        """Descriptive characteristics (Table I row)."""
        return WorkloadSpec(
            name="GroupSharing",
            data_set=(
                f"{self.n_threads} threads / groups of {self.group_size}, "
                f"{self.objects_per_group} shared objects per group"
            ),
            rounds=self.rounds,
            granularity="Synthetic",
            object_size=f"{self.object_size} bytes",
        )

    @property
    def n_groups(self) -> int:
        """Number of thread groups."""
        return self.n_threads // self.group_size

    def group_of(self, thread_id: int) -> int:
        """Group index of one thread."""
        return thread_id // self.group_size

    def build(self, djvm: DJVM, *, placement: str = "block") -> None:
        """Define classes, allocate the object graph, spawn threads."""
        self._spawn(djvm, placement)
        cls = djvm.registry.define("SynObject", self.object_size)
        allocate_many = djvm.gos.allocate_many
        self.group_pool = [
            list(
                allocate_many(
                    [cls] * self.objects_per_group,
                    self.node_of(g * self.group_size),
                    sites="syn.group",
                )
            )
            for g in range(self.n_groups)
        ]
        self.private_pool = [
            list(
                allocate_many([cls] * self.private_per_thread, self.node_of(t), sites="syn.private")
            )
            for t in range(self.n_threads)
        ]
        self.global_pool = list(
            allocate_many([cls] * self.global_objects, self.node_of(0), sites="syn.global")
        )

    def program(self, thread_id: int):
        """The op stream for one thread."""
        return self._generate(thread_id)

    def _generate(self, thread_id: int):
        rng = seeded_rng(self.seed, "group_sharing", f"t{thread_id}")
        group = self.group_of(thread_id)
        barrier_seq = 0
        anchor = self.group_pool[group][0]
        yield P.call("Syn.run", n_slots=4, refs=[(0, anchor)])
        is_producer = thread_id % self.group_size == 0
        for _round in range(self.rounds):
            yield P.call("Syn.round", n_slots=3, refs=[(0, anchor)])
            for obj_id in self.group_pool[group]:
                yield P.read(obj_id, repeat=self.reads_per_object)
                if self.group_writes and is_producer:
                    yield P.write(obj_id)
            for obj_id in self.private_pool[thread_id]:
                yield P.read(obj_id, repeat=self.reads_per_object)
                yield P.write(obj_id)
            for obj_id in self.global_pool:
                yield P.read(obj_id)
            yield P.compute(int(rng.integers(5_000, 10_000)))
            yield P.ret()
            yield P.barrier(barrier_seq)
            barrier_seq += 1
        yield P.ret()

    # ------------------------------------------------------------------
    # ground truth
    # ------------------------------------------------------------------

    def true_tcm(self) -> np.ndarray:
        """Exact shared bytes per thread pair (diagonal zeroed)."""
        n = self.n_threads
        tcm = np.zeros((n, n))
        group_bytes = self.objects_per_group * self.object_size
        global_bytes = self.global_objects * self.object_size
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                tcm[i, j] = global_bytes
                if self.group_of(i) == self.group_of(j):
                    tcm[i, j] += group_bytes
        return tcm


class UniformSharingWorkload(Workload):
    """Every thread reads every shared object — a flat TCM."""

    def __init__(
        self,
        n_threads: int = 4,
        *,
        n_objects: int = 128,
        object_size: int = 64,
        rounds: int = 2,
        seed: int = 0,
    ) -> None:
        super().__init__(n_threads=n_threads, seed=seed)
        self.n_objects = n_objects
        self.object_size = object_size
        self.rounds = rounds
        self.pool: list[int] = []

    def spec(self) -> WorkloadSpec:
        """Descriptive characteristics (Table I row)."""
        return WorkloadSpec(
            name="UniformSharing",
            data_set=f"{self.n_objects} objects shared by all",
            rounds=self.rounds,
            granularity="Synthetic",
            object_size=f"{self.object_size} bytes",
        )

    def build(self, djvm: DJVM, *, placement: str = "block") -> None:
        """Define classes, allocate the object graph, spawn threads."""
        self._spawn(djvm, placement)
        cls = djvm.registry.define("UniObject", self.object_size)
        self.pool = list(
            djvm.gos.allocate_many(
                [cls] * self.n_objects, np.arange(self.n_objects) % len(djvm.cluster)
            )
        )

    def program(self, thread_id: int):
        """The op stream for one thread."""
        return self._generate(thread_id)

    def _generate(self, thread_id: int):
        barrier_seq = 0
        yield P.call("Uni.run", n_slots=2, refs=[(0, self.pool[0])])
        for _round in range(self.rounds):
            for obj_id in self.pool:
                yield P.read(obj_id)
            yield P.barrier(barrier_seq)
            barrier_seq += 1
        yield P.ret()

    def true_tcm(self) -> np.ndarray:
        """Exact ground-truth shared bytes per thread pair."""
        n = self.n_threads
        tcm = np.full((n, n), float(self.n_objects * self.object_size))
        np.fill_diagonal(tcm, 0.0)
        return tcm


class RacyCounterWorkload(Workload):
    """A shared counter incremented by every thread — with or without a
    lock.

    Each round, every thread reads and writes the one shared counter
    object.  With ``locked=True`` the read-modify-write runs inside
    ``acquire(0)``/``release(0)``, so mutual exclusion's release->acquire
    edges order every conflicting pair and the race detector must stay
    silent.  With ``locked=False`` the counter accesses have no
    synchronization between them: the trailing per-round barrier orders
    *rounds*, not the accesses within one round, so the first round
    already contains a write-write (and write-read) race — the seeded
    ground truth the ``race`` check gate asserts the detector catches.

    Each thread also reads a shared read-only config object (concurrent
    reads, which are no race) and writes a private scratch object
    (never shared, never reported).
    """

    def __init__(
        self,
        n_threads: int = 2,
        *,
        locked: bool = False,
        rounds: int = 2,
        increments_per_round: int = 3,
        object_size: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__(n_threads=n_threads, seed=seed)
        if n_threads < 2:
            raise ValueError("a race needs at least two threads")
        self.locked = locked
        self.rounds = rounds
        self.increments_per_round = increments_per_round
        self.object_size = object_size
        self.counter_id: int | None = None
        self.config_id: int | None = None
        self.scratch_ids: list[int] = []

    def spec(self) -> WorkloadSpec:
        """Descriptive characteristics (Table I row)."""
        mode = "locked" if self.locked else "racy"
        return WorkloadSpec(
            name=f"RacyCounter[{mode}]",
            data_set=f"{self.n_threads} threads, 1 shared counter",
            rounds=self.rounds,
            granularity="Synthetic",
            object_size=f"{self.object_size} bytes",
        )

    def build(self, djvm: DJVM, *, placement: str = "round_robin") -> None:
        """Define classes, allocate counter/config/scratch, spawn threads."""
        self._spawn(djvm, placement)
        cls = djvm.registry.define("Counter", self.object_size)
        self.counter_id = djvm.allocate(cls, self.node_of(0), site="racy.counter").obj_id  # shared
        self.config_id = djvm.allocate(cls, self.node_of(0), site="racy.config").obj_id
        self.scratch_ids = [
            djvm.allocate(cls, self.node_of(t), site="racy.scratch").obj_id
            for t in range(self.n_threads)
        ]

    def program(self, thread_id: int):
        """The op stream for one thread."""
        return self._generate(thread_id)

    def _generate(self, thread_id: int):
        assert self.counter_id is not None, "build() must run first"
        rng = seeded_rng(self.seed, "racy_counter", f"t{thread_id}")
        yield P.call("Counter.run", n_slots=2, refs=[(0, self.counter_id)])
        yield P.read(self.config_id)
        for round_no in range(self.rounds):
            for _ in range(self.increments_per_round):
                if self.locked:
                    yield P.acquire(0)
                yield P.read(self.counter_id)
                yield P.compute(int(rng.integers(500, 1_500)))
                yield P.write(self.counter_id)  # simlint: disable=SIM012 (the seeded race; the locked variant orders it at runtime)
                if self.locked:
                    yield P.release(0)
            yield P.write(self.scratch_ids[thread_id])
            yield P.barrier(round_no)
        yield P.ret()
