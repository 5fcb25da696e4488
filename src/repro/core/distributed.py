"""Distributed correlation-map computation — the paper's Section VI wish
("it is desirable to have distributed algorithms for deducing
correlation maps in a more scalable way"), realized.

The centralized daemon's cost is O(MN) reorganization plus O(MN^2)
accrual on one master (Table III's dominant overhead).  The distributed
scheme partitions the work **by object**: objects are hashed to owner
nodes; the master scatters each window's OAL entries to the owners, each
owner reorganizes and accrues the pairs of *its* objects into a partial
N x N map, and the master reduces the ``n_nodes`` partials.  Per-object
partitioning is exact — an object's pairwise contributions depend only
on its own accessor set — so the distributed map equals the centralized
one bit for bit, while the wall-clock compute drops to the slowest
owner's share plus a small reduce.
"""

from __future__ import annotations

import numpy as np

from repro.core.collector import CorrelationCollector
from repro.core.oal import ENTRY_WIRE_BYTES, OALBatch
from repro.core.tcm import accrual_pair_count, tcm_from_batches
from repro.heap.heap import GlobalObjectSpace
from repro.sim.cluster import Cluster
from repro.sim.network import MessageKind

#: wire bytes per partial-TCM cell in the reduce step.
CELL_WIRE_BYTES = 8
#: per-cell merge cost at the master, nanoseconds.
MERGE_NS_PER_CELL = 4


class DistributedCorrelationCollector(CorrelationCollector):
    """Drop-in collector whose window processing is object-partitioned
    across the cluster.

    Produces byte-identical TCMs to :class:`CorrelationCollector`; only
    the *cost model* changes: each node is charged for its own objects'
    reorganization and accrual, scatter/reduce traffic is accounted, and
    :attr:`tcm_compute_wall_ns` records the critical-path time (max over
    owners + reduce) instead of the centralized sum.
    """

    def __init__(
        self,
        n_threads: int,
        cluster: Cluster,
        gos: GlobalObjectSpace | None = None,
        *,
        window_batches: int | None = None,
    ) -> None:
        super().__init__(n_threads, cluster, gos, window_batches=window_batches)
        #: wall-clock (critical path) compute time of the distributed daemon.
        self.tcm_compute_wall_ns = 0
        #: per-node compute shares of the last processed window.
        self.last_window_node_ns: dict[int, int] = {}

    def owner_of(self, obj_id: int) -> int:
        """Owner node for an object's correlation work (hash partition)."""
        return obj_id % len(self.cluster)

    def process_window(self) -> np.ndarray:
        """Process pending batches with the distributed cost model."""
        batches = self._pending
        self._pending = []
        n_nodes = len(self.cluster)
        costs = self.costs
        master = self.cluster.master_id

        # Partition entries (and hence work) by owner.
        per_owner_batches: dict[int, list[OALBatch]] = {k: [] for k in range(n_nodes)}
        scatter_bytes = {k: 0 for k in range(n_nodes)}
        for batch in batches:
            split: dict[int, OALBatch] = {}
            for obj_id, scaled, class_id in batch.entries:
                owner = self.owner_of(obj_id)
                frag = split.get(owner)
                if frag is None:
                    frag = OALBatch(batch.thread_id, batch.interval_id)
                    split[owner] = frag
                frag.add(obj_id, scaled, class_id)
            for owner, frag in sorted(split.items()):
                per_owner_batches[owner].append(frag)
                scatter_bytes[owner] += len(frag) * ENTRY_WIRE_BYTES

        # Scatter (master -> owners), owner-local compute, reduce back.
        node_ns: dict[int, int] = {}
        for owner in range(n_nodes):
            owned = per_owner_batches[owner]
            n_entries = sum(len(b) for b in owned)
            pairs = accrual_pair_count(owned)
            compute = (
                n_entries * costs.tcm_reorg_ns_per_entry
                + pairs * costs.tcm_accrue_ns_per_pair
            )
            node_ns[owner] = compute
            self.cluster[owner].cpu.extra["tcm_compute_ns"] = (
                self.cluster[owner].cpu.extra.get("tcm_compute_ns", 0) + compute
            )
            if scatter_bytes[owner]:
                self.network_scatter(master, owner, scatter_bytes[owner])
            if n_entries:
                # Partial map back to the master (dense N x N).
                self.network_scatter(owner, master, self.n_threads**2 * CELL_WIRE_BYTES)

        merge_ns = n_nodes * self.n_threads**2 * MERGE_NS_PER_CELL
        self.cluster.master.cpu.extra["tcm_merge_ns"] = (
            self.cluster.master.cpu.extra.get("tcm_merge_ns", 0) + merge_ns
        )
        wall = (max(node_ns.values()) if node_ns else 0) + merge_ns
        self.tcm_compute_wall_ns += wall
        self.tcm_compute_ns += sum(node_ns.values()) + merge_ns
        self.last_window_node_ns = node_ns

        window = tcm_from_batches(batches, self.n_threads)
        self._accrued += window
        self.window_tcms.append(window)
        return window

    def network_scatter(self, src: int, dst: int, size: int) -> None:
        """Account one scatter/reduce message (no thread blocks on it)."""
        self.cluster.network.send(MessageKind.OAL, src, dst, size)

    @property
    def tcm_compute_wall_ms(self) -> float:
        """Critical-path daemon time (what replaces Table III's column)."""
        return self.tcm_compute_wall_ns / 1e6

    def speedup_vs_centralized(self) -> float:
        """Aggregate-compute / critical-path ratio achieved so far."""
        if self.tcm_compute_wall_ns == 0:
            return 1.0
        return self.tcm_compute_ns / self.tcm_compute_wall_ns
