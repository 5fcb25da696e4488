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
one bit for bit (the simulator folds each delivered batch once, counting
its entries per owner, and reads each owner's pairs off the window's
object rows), while the wall-clock compute drops to the slowest
owner's share plus a small reduce.
"""

from __future__ import annotations

import numpy as np

from repro.core.collector import CorrelationCollector
from repro.core.oal import ENTRY_WIRE_BYTES, OALBatch
from repro.core.tcm import window_accrual
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
        #: the open window's OAL entries per owner node.
        self._owner_entries = np.zeros(len(cluster), dtype=np.int64)

    def owner_of(self, obj_id: int) -> int:
        """Owner node for an object's correlation work (hash partition)."""
        return obj_id % len(self.cluster)

    def deliver(self, batch: OALBatch, *, now_ns: int | None = None) -> None:
        """Count the batch's entries per owner, then fold it."""
        if batch.obj_ids:
            owners = np.array(batch.obj_ids, dtype=np.int64) % len(self.cluster)
            self._owner_entries += np.bincount(owners, minlength=len(self.cluster))
        super().deliver(batch, now_ns=now_ns)

    def process_window(self) -> np.ndarray:
        """Finish the open window with the distributed cost model."""
        n_nodes = len(self.cluster)
        costs = self.costs
        master = self.cluster.master_id

        # Each owner reorganizes its objects' entries and accrues their
        # pairs: |threads(obj)|^2 steps per object, summed per owner.
        objs, sharers = self._acc.row_sharers()
        owner_pairs = np.zeros(n_nodes, dtype=np.int64)
        np.add.at(owner_pairs, objs % n_nodes, sharers * sharers)
        owner_entries = self._owner_entries.tolist()
        self._owner_entries[:] = 0

        # Scatter (master -> owners), owner-local compute, reduce back.
        node_ns: dict[int, int] = {}
        for owner, n_entries, pairs in zip(range(n_nodes), owner_entries, owner_pairs.tolist()):
            compute = (
                n_entries * costs.tcm_reorg_ns_per_entry
                + pairs * costs.tcm_accrue_ns_per_pair
            )
            node_ns[owner] = compute
            self.cluster[owner].cpu.extra["tcm_compute_ns"] = (
                self.cluster[owner].cpu.extra.get("tcm_compute_ns", 0) + compute
            )
            if n_entries:
                self.network_scatter(master, owner, n_entries * ENTRY_WIRE_BYTES)
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

        window = window_accrual((), self.n_threads, acc=self._acc).tcm
        self._accrued += window
        self.window_tcms.append(window)
        return window

    def reset(self) -> None:
        """Drop all state, the open window's per-owner counts included."""
        super().reset()
        self._owner_entries[:] = 0

    def network_scatter(self, src: int, dst: int, size: int) -> None:
        """Account one scatter/reduce message (no thread blocks on it)."""
        self.cluster.network.send(MessageKind.OAL, src, dst, size)

    @property
    def tcm_compute_wall_ms(self) -> float:
        """Critical-path daemon time (what replaces Table III's column)."""
        return self.tcm_compute_wall_ns / 1e6
