"""The master-side correlation collector daemon.

Receives OAL batches from every worker, folds each into the open
window's per-object thread lists as it arrives (keeping no batch), and —
once enough intervals are gathered — builds the window's thread
correlation map from them (paper Section II.A, the "correlation
computing daemon" of Fig. 2).  The CPU cost of that computation
(overhead class O3, the dominant one in Table III) is modelled from the
daemon's actual work: O(MN) reorganization over OAL entries plus
O(M N^2) pair accrual, and charged to the master node's CPU account.
"""

from __future__ import annotations

import numpy as np

from repro.core.oal import OALBatch
from repro.core.tcm import TCMAccumulator, window_accrual
from repro.heap.heap import GlobalObjectSpace
from repro.sim.cluster import Cluster


class CorrelationCollector:
    """Folds OAL batches into the open window and computes TCMs on
    demand or per window."""

    def __init__(
        self,
        n_threads: int,
        cluster: Cluster,
        gos: GlobalObjectSpace | None = None,
        *,
        window_batches: int | None = None,
    ) -> None:
        if n_threads < 1:
            raise ValueError(f"need at least one thread, got {n_threads}")
        self.n_threads = n_threads
        self.cluster = cluster
        self.costs = cluster.costs
        #: exposed so the access profiler can price resampling passes.
        self.gos = gos
        #: when set, a TCM is built automatically every ``window_batches``
        #: delivered batches (windowed accrual); otherwise on demand.
        self.window_batches = window_batches
        #: the open window, folded batch by batch at delivery.
        self._acc = TCMAccumulator(n_threads)
        self.batches_received = 0
        self.entries_received = 0
        #: cumulative TCM accrued over completed windows.
        self._accrued = np.zeros((n_threads, n_threads), dtype=np.float64)
        #: per-window TCMs (kept for adaptive-controller consumption).
        self.window_tcms: list[np.ndarray] = []
        #: when True, each processed window also yields per-class maps
        #: (consumed by the per-class adaptive controller); set it
        #: before a window's first delivery.
        self.track_per_class = False
        #: per-window {class_id: tcm} dicts (only when track_per_class).
        self.window_class_tcms: list[dict[int, np.ndarray]] = []
        #: modelled daemon CPU time (overhead O3), nanoseconds.
        self.tcm_compute_ns = 0
        #: the run's observer list (``HomeBasedLRC.observers``, shared
        #: by the ProfilerSuite); empty for a stand-alone collector.
        self.observers = ()
        #: simulated time of the latest delivered batch — anchors window
        #: spans; bookkeeping only, never fed back into the simulation.
        self._last_deliver_ns = 0

    # ------------------------------------------------------------------

    def deliver(self, batch: OALBatch, *, now_ns: int | None = None) -> None:
        """Accept one OAL batch from a worker (``now_ns`` = simulated
        delivery time, used only to anchor trace spans)."""
        if now_ns is not None and now_ns > self._last_deliver_ns:
            self._last_deliver_ns = now_ns
        self._acc.fold_batch(batch, per_class=self.track_per_class)
        self.batches_received += 1
        self.entries_received += len(batch)
        if self.window_batches is not None and self._acc.n_batches >= self.window_batches:
            self.process_window()

    def process_window(self) -> np.ndarray:
        """Finish the open window and add its TCM to the accrued one;
        returns the window's own TCM.  Charges the modelled daemon cost."""
        # The batches are folded already: this computes the window TCM,
        # the naive-daemon pair count and (when tracked) per-class maps.
        acc = window_accrual((), self.n_threads, per_class=self.track_per_class, acc=self._acc)
        cost = (
            acc.n_entries * self.costs.tcm_reorg_ns_per_entry
            + acc.pair_count * self.costs.tcm_accrue_ns_per_pair
        )
        self.tcm_compute_ns += cost
        self.cluster.master.cpu.extra["tcm_compute_ns"] = (
            self.cluster.master.cpu.extra.get("tcm_compute_ns", 0) + cost
        )
        window = acc.tcm
        if self.observers:
            for observer in self.observers:
                observer.on_tcm_window(
                    self.cluster.master_id,
                    self._last_deliver_ns,
                    cost,
                    acc.n_entries,
                    len(self.window_tcms),
                )
        # Incremental accrual: the running TCM is updated in place.
        self._accrued += window
        self.window_tcms.append(window)
        if self.track_per_class:
            self.window_class_tcms.append(acc.class_tcms)
        return window

    def tcm(self) -> np.ndarray:
        """The full accrued TCM (finishing the open window first)."""
        if self._acc.n_batches:
            self.process_window()
        return self._accrued.copy()

    @property
    def tcm_compute_ms(self) -> float:
        """Modelled daemon CPU time in milliseconds (Table III column)."""
        return self.tcm_compute_ns / 1e6

    def reset(self) -> None:
        """Drop all state (e.g. between measurement phases)."""
        self._acc.reset()
        self._accrued = np.zeros((self.n_threads, self.n_threads), dtype=np.float64)
        self.window_tcms = []
        self.window_class_tcms = []
        self.batches_received = 0
        self.entries_received = 0
        self.tcm_compute_ns = 0
        self._last_deliver_ns = 0
