"""Thread migration cost model (paper Section III).

The *direct* cost of a migration is shipping the thread context (stack
frames).  The *indirect* cost — usually dominant — is the remote object
faults the thread suffers after landing, which the sticky-set footprint
predicts: every sticky object is one fault round trip unless prefetched
along with the migration, in which case it rides a bulk transfer.

The model prices all three quantities so a load balancer can compare
    gain  (communication saved by co-locating correlated threads, from
           the TCM) against
    cost  (direct + indirect or direct + prefetch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsm.hlrc import FETCH_REPLY_OVERHEAD, fetch_wait_ns
from repro.runtime.migration import MIGRATION_OVERHEAD_BYTES, SLOT_WIRE_BYTES
from repro.sim.costs import CostModel
from repro.sim.network import Network

#: assumed average object count per class footprint byte when the object
#: population is unknown (used only by the coarse fault-count fallback).
FALLBACK_OBJ_BYTES = 256


def object_fault_ns(
    costs: CostModel,
    network: Network,
    size_bytes: int,
    node: int | None = None,
    home: int | None = None,
) -> int:
    """Simulated cost of one remote object fault: GOS trap plus the
    fetch round trip (:func:`~repro.dsm.hlrc.fetch_wait_ns`, the price
    ``HomeBasedLRC._fault_remote`` pays).

    Shared by the migration cost model's indirect-fault pricing and the
    object-centric inefficiency report's pattern scoring, so both layers
    agree on what one avoidable fault is worth.  Those callers price a
    fault without endpoints, i.e. at the fabric's flat latency — under
    a :class:`~repro.sim.network.RackTopology` pass ``node`` and
    ``home`` for the per-pair figure.
    """
    return costs.gos_trap_ns + fetch_wait_ns(network, int(size_bytes), node, home)


@dataclass
class MigrationCostEstimate:
    """Priced migration alternatives, nanoseconds."""

    direct_ns: int
    #: post-migration fault cost if nothing is prefetched.
    indirect_fault_ns: int
    #: cost of bundling the sticky set with the migration instead.
    prefetch_ns: int
    sticky_bytes: int
    sticky_objects: int

    @property
    def total_without_prefetch_ns(self) -> int:
        """Direct cost plus every post-migration fault."""
        return self.direct_ns + self.indirect_fault_ns

    @property
    def total_with_prefetch_ns(self) -> int:
        """Direct cost plus the bulk prefetch transfer."""
        return self.direct_ns + self.prefetch_ns

    @property
    def prefetch_saving_ns(self) -> int:
        """How much prefetching the sticky set saves (can be negative for
        tiny sticky sets where the bundle overhead loses)."""
        return self.indirect_fault_ns - self.prefetch_ns


class MigrationCostModel:
    """Prices migrations from profiling output."""

    def __init__(self, network: Network, costs: CostModel) -> None:
        self.network = network
        self.costs = costs

    def estimate(
        self,
        *,
        stack_slots: int,
        sticky_footprint: dict[str, float],
        object_sizes: dict[str, float] | None = None,
    ) -> MigrationCostEstimate:
        """Price a migration.

        ``sticky_footprint`` maps class name -> predicted sticky bytes.
        ``object_sizes`` maps class name -> average object size, used to
        convert bytes into fault *counts* (each fault pays a full round
        trip); when absent a coarse default applies.
        """
        if stack_slots < 0:
            raise ValueError(f"stack_slots must be >= 0, got {stack_slots}")
        costs = self.costs
        direct = (
            costs.migration_fixed_ns
            + stack_slots * costs.migration_ns_per_slot
            + self.network.transfer_time_ns(
                MIGRATION_OVERHEAD_BYTES + stack_slots * SLOT_WIRE_BYTES
            )
        )
        sticky_bytes = int(sum(max(0.0, b) for b in sticky_footprint.values()))  # simlint: disable=SIM003 (float sum; reordering perturbs rounding, insertion order is deterministic)
        n_objects = 0
        fault_ns = 0
        for cname, b in sorted(sticky_footprint.items()):
            if b <= 0:
                continue
            size = None if object_sizes is None else object_sizes.get(cname)
            if size is None or size <= 0:
                size = FALLBACK_OBJ_BYTES
            count = max(1, int(round(b / size)))
            n_objects += count
            fault_ns += count * object_fault_ns(costs, self.network, size)
        prefetch = (
            self.network.transfer_time_ns(sticky_bytes + FETCH_REPLY_OVERHEAD * n_objects)
            if sticky_bytes
            else 0
        )
        return MigrationCostEstimate(
            direct_ns=direct,
            indirect_fault_ns=fault_ns,
            prefetch_ns=prefetch,
            sticky_bytes=sticky_bytes,
            sticky_objects=n_objects,
        )

    # ------------------------------------------------------------------
    # placement gain side
    # ------------------------------------------------------------------

    def migration_gain_ns(
        self,
        tcm: np.ndarray,
        thread_id: int,
        src_node: int,
        dst_node: int,
        placement: dict[int, int],
        *,
        horizon_intervals: int = 1,
    ) -> float:
        """Communication-time change (positive = saving) of moving
        ``thread_id`` from ``src_node`` to ``dst_node`` given the current
        thread placement and the TCM's shared-byte estimates.

        Bytes shared with threads on the destination stop crossing the
        wire; bytes shared with threads left behind start crossing it.
        """
        tcm = np.asarray(tcm, dtype=np.float64)
        n = tcm.shape[0]
        if placement.get(thread_id) != src_node:
            raise ValueError(
                f"placement says thread {thread_id} is on "
                f"{placement.get(thread_id)}, not {src_node}"
            )
        gained = 0.0
        lost = 0.0
        for other in range(n):
            if other == thread_id:
                continue
            shared = float(tcm[thread_id, other])
            if shared <= 0:
                continue
            where = placement.get(other)
            if where == dst_node:
                gained += shared
            elif where == src_node:
                lost += shared
        net_bytes = (gained - lost) * horizon_intervals
        return net_bytes / self.network.bandwidth_bytes_per_s * 1e9
