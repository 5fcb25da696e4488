"""Thread migration engine.

Migrating a thread ships its portable Java frames (direct cost) and then
pays *indirect* cost: every object the thread keeps using must be
re-faulted from its home to the new node (Section III, Fig. 4).  The
engine supports prefetching a resolved sticky set along with the
migration — the paper's mechanism for hiding those round trips — by
bulk-transferring the set in the migration message exchange and
installing valid cache copies at the target before the thread resumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.dsm.hlrc import HomeBasedLRC
from repro.dsm.states import CopyRecord, RealState
from repro.runtime.thread import SimThread
from repro.sim.cluster import Cluster
from repro.sim.network import MessageKind

#: serialized bytes per stack slot in the portable frame format.
SLOT_WIRE_BYTES = 8
#: fixed migration message overhead (thread metadata, frame descriptors).
MIGRATION_OVERHEAD_BYTES = 256
#: per-object overhead in a prefetch bundle (id, class, version).
PREFETCH_ENTRY_OVERHEAD = 16


@dataclass
class MigrationPlan:
    """A pending migration request."""

    thread_id: int
    target_node: int
    #: trigger: migrate when the thread opens interval >= at_interval ...
    at_interval: int | None = None
    #: ... or when its pc reaches at_pc (whichever is set).
    at_pc: int | None = None
    #: explicit object ids to prefetch, or a provider called at migration time.
    prefetch: list[int] | None = None
    prefetch_provider: Callable[[SimThread], list[int]] | None = None

    def triggered(self, thread: SimThread) -> bool:
        """True once the thread reached the plan's trigger point."""
        if self.at_interval is not None and thread.interval_counter >= self.at_interval:
            return True
        if self.at_pc is not None and thread.pc >= self.at_pc:
            return True
        return self.at_interval is None and self.at_pc is None


@dataclass
class MigrationResult:
    """What one migration cost and carried."""

    thread_id: int
    from_node: int
    to_node: int
    stack_slots: int
    direct_cost_ns: int
    prefetched_objects: int = 0
    prefetched_bytes: int = 0
    #: ids actually installed at the target.
    prefetched_ids: list[int] = field(default_factory=list)


class MigrationEngine:
    """Performs (optionally prefetching) thread migrations."""

    def __init__(self, hlrc: HomeBasedLRC, cluster: Cluster) -> None:
        self.hlrc = hlrc
        self.cluster = cluster
        self._pending: dict[int, MigrationPlan] = {}
        self.results: list[MigrationResult] = []

    def schedule(self, plan: MigrationPlan) -> None:
        """Queue a migration; the interpreter polls and fires it."""
        if plan.thread_id in self._pending:
            raise ValueError(f"thread {plan.thread_id} already has a pending migration")
        self._pending[plan.thread_id] = plan

    def has_pending(self, thread_id: int) -> bool:
        """True if a migration is queued for ``thread_id``."""
        return thread_id in self._pending

    def maybe_migrate(self, thread: SimThread) -> MigrationResult | None:
        """Fire the thread's pending migration if its trigger condition holds."""
        plan = self._pending.get(thread.thread_id)
        if plan is None or not plan.triggered(thread):
            return None
        del self._pending[thread.thread_id]
        prefetch_ids = plan.prefetch
        if prefetch_ids is None and plan.prefetch_provider is not None:
            prefetch_ids = plan.prefetch_provider(thread)
        return self.migrate(thread, plan.target_node, prefetch=prefetch_ids)

    def migrate(
        self,
        thread: SimThread,
        target_node: int,
        *,
        prefetch: list[int] | None = None,
    ) -> MigrationResult:
        """Move ``thread`` to ``target_node`` now, shipping the stack and
        (optionally) a prefetched object set."""
        if not 0 <= target_node < len(self.cluster):
            raise ValueError(f"target node {target_node} out of range")
        src = thread.node_id
        if src == target_node:
            raise ValueError(f"thread {thread.thread_id} is already on node {target_node}")
        costs = self.hlrc.costs
        network = self.hlrc.network

        migrate_begin_ns = thread.clock.now_ns
        slots = thread.stack.total_slots()
        freeze_ns = costs.migration_fixed_ns + slots * costs.migration_ns_per_slot
        thread.cpu.migration_ns += freeze_ns
        thread.clock.advance(freeze_ns)

        stack_bytes = MIGRATION_OVERHEAD_BYTES + slots * SLOT_WIRE_BYTES
        wait = network.send(MessageKind.MIGRATION, src, target_node, stack_bytes)
        thread.cpu.network_wait_ns += wait
        thread.clock.advance(wait)

        result = MigrationResult(
            thread_id=thread.thread_id,
            from_node=src,
            to_node=target_node,
            stack_slots=slots,
            direct_cost_ns=freeze_ns + wait,
        )

        if prefetch:
            result.prefetched_ids = self._prefetch(thread, src, target_node, prefetch)
            result.prefetched_objects = len(result.prefetched_ids)
            result.prefetched_bytes = sum(
                self.hlrc.gos.get(o).size_bytes for o in result.prefetched_ids
            )

        # Rehome the thread.
        self.cluster[src].thread_ids.discard(thread.thread_id)
        self.cluster[target_node].thread_ids.add(thread.thread_id)
        thread.node_id = target_node
        thread.migrations += 1
        self.results.append(result)
        observers = self.hlrc.observers
        if observers:
            for observer in observers:
                observer.on_migration(thread, result, migrate_begin_ns)
        return result

    def _prefetch(
        self, thread: SimThread, src: int, target_node: int, obj_ids: list[int]
    ) -> list[int]:
        """Bulk-install valid cache copies of ``obj_ids`` at the target.

        Objects homed at the target need no transfer.  The bundle is
        grouped by home node: each contributing home sends one PREFETCH
        message to the target (a gather, overlapping the migration), and
        the thread waits for the largest single transfer.
        """
        gos = self.hlrc.gos
        heap = self.hlrc.heaps[target_node]
        by_home: dict[int, list[int]] = {}
        installed: list[int] = []
        for obj_id in obj_ids:
            obj = gos.get(obj_id)
            record = heap.get(obj_id)
            if record is not None and record.real_state is not RealState.INVALID:  # type: ignore[union-attr]
                continue  # already present and valid at the target
            if obj.home_node == target_node:
                continue  # home copies materialize for free
            by_home.setdefault(obj.home_node, []).append(obj_id)
        longest_wait = 0
        for home, ids in sorted(by_home.items()):
            bundle = sum(gos.get(o).size_bytes + PREFETCH_ENTRY_OVERHEAD for o in ids)
            wait = self.hlrc.network.send(MessageKind.PREFETCH, home, target_node, bundle)
            longest_wait = max(longest_wait, wait)
            for obj_id in ids:
                obj = gos.get(obj_id)
                record = heap.get(obj_id)
                if record is None:
                    heap.put(
                        obj_id,
                        CopyRecord(obj_id, RealState.VALID, fetched_version=obj.home_version),
                    )
                else:
                    record.real_state = RealState.VALID  # type: ignore[union-attr]
                    record.fetched_version = obj.home_version  # type: ignore[union-attr]
                installed.append(obj_id)
        thread.cpu.network_wait_ns += longest_wait
        thread.clock.advance(longest_wait)
        return installed
