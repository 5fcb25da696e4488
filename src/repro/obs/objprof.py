"""Object-centric inefficiency profiler.

DJXPerf-style attribution: the aggregate counters say *how much* the
protocol worked; this profiler says *which objects* — and, through the
allocation-site labels captured at GOS registration, *which workload
lines* — made it work.  It is a scalar-loop (``on_access``)
:class:`~repro.dsm.observer.ProtocolObserver`
(``djvm.attach(ObjectProfiler())``): its overrides fold the
fault/diff/invalidation/OAL event stream into per-object
:class:`ObjLifetime` records and never advance a simulated clock,
charge CPU, or send a message, so a profiled run has the same
:func:`~repro.runtime.djvm.run_fingerprint` as an unprofiled one.

Event sources folded per object:

* **faults** (:meth:`ObjectProfiler.on_fault`) — fetch round trips, split by
  faulting node; a fault that replaces an invalidated copy is a
  *refault*.  Each fault opens a read *epoch* on the faulting node.
* **diffs** (:meth:`on_diff`, interval close) — flushes by cache-copy
  writers, with dirty-byte mass.
* **invalidations** (:meth:`on_invalidations`, write-notice
  application) — closes the node's read epoch; an epoch that saw zero
  reads means the faulted-in copy was never read before dying — a
  *dead transfer*.
* **interval access summaries** (:meth:`on_summaries`, folded by the
  :class:`~repro.dsm.intervals.AccessSummaries` base) — exact
  per-node read/write mass and the writer-node sequence (alternation
  count feeds the ping-pong detector).  Epoch read counts accumulate
  here: invalidations only happen at sync points, so interval epochs
  align with copy epochs.
* **OAL batches** (:meth:`on_oal_flush`, from the access profiler) —
  Horvitz–Thompson-weighted access mass: ``scaled_bytes`` is already
  gap-scaled by the active sampling backend, so summing it estimates
  the site's true access mass from the sampled subset.
* **barrier releases** (:meth:`on_barrier_release`) — lifetime *phase*
  boundaries; each record keeps the first/last phase it was active in.

Pattern detection and simulated-cost scoring are deferred to report
time (:mod:`repro.obs.patterns` / :mod:`repro.obs.report`), outside the
observer hooks.
"""

from __future__ import annotations

from repro.dsm.intervals import AccessSummaries

__all__ = ["ObjLifetime", "ObjectProfiler"]


class ObjLifetime:
    """Per-object lifetime profile folded from the protocol event stream."""

    __slots__ = (
        "faults", "refaults", "faults_by_node", "diffs", "diff_bytes",
        "invalidations", "dead_transfers", "reads_by_node", "writes_by_node",
        "writer_nodes", "writer_threads", "last_writer_node",
        "writer_alternations", "ht_bytes", "first_phase", "last_phase",
        "_epoch_reads",
    )

    def __init__(self) -> None:
        #: remote fetch round trips, total and per faulting node.
        self.faults = 0
        self.refaults = 0
        self.faults_by_node: dict[int, int] = {}
        #: diff flushes by cache-copy writers.
        self.diffs = 0
        self.diff_bytes = 0
        #: cache copies of this object invalidated by write notices.
        self.invalidations = 0
        #: faulted-in copies invalidated before a single read.
        self.dead_transfers = 0
        #: exact access mass per node (from interval summaries).
        self.reads_by_node: dict[int, int] = {}
        self.writes_by_node: dict[int, int] = {}
        #: writer-interval sequence: distinct nodes, thread ids, and the
        #: number of times the writing node changed between intervals.
        self.writer_nodes: set[int] = set()
        self.writer_threads: set[int] = set()
        self.last_writer_node = -1
        self.writer_alternations = 0
        #: Horvitz–Thompson-weighted access mass from OAL entries.
        self.ht_bytes = 0
        #: barrier-release phase span this object was active in.
        self.first_phase = -1
        self.last_phase = -1
        #: open read epochs: faulting node -> reads since that fault.
        self._epoch_reads: dict[int, int] = {}


class ObjectProfiler(AccessSummaries):
    """Pure observer folding protocol events into per-object lifetimes.

    Attach with ``djvm.attach(ObjectProfiler())``; with a
    ``ProfilerSuite`` on the same DJVM the HT-weighted OAL feed arrives
    through :meth:`on_oal_flush`.
    """

    __slots__ = ("records", "phase", "phase_release_ns", "intervals")

    def __init__(self) -> None:
        super().__init__()
        #: obj_id -> :class:`ObjLifetime`.
        self.records: dict[int, ObjLifetime] = {}
        #: current lifetime phase (barrier releases seen so far).
        self.phase = 0
        #: simulated release time of each completed phase.
        self.phase_release_ns: list[int] = []
        #: interval closes observed.
        self.intervals = 0

    def _record(self, obj_id: int) -> ObjLifetime:
        rec = self.records.get(obj_id)
        if rec is None:
            rec = ObjLifetime()
            self.records[obj_id] = rec
        if rec.first_phase < 0:
            rec.first_phase = self.phase
        rec.last_phase = self.phase
        return rec

    # ------------------------------------------------------------------
    # ProtocolObserver overrides
    # ------------------------------------------------------------------

    def on_fault(self, thread, obj, refault: bool, begin_ns: int, n_objects: int) -> None:
        """One remote fetch round trip by ``thread``; ``refault`` when it
        replaced a previously-invalidated copy."""
        rec = self._record(obj.obj_id)
        node = thread.node_id
        rec.faults += 1
        rec.faults_by_node[node] = rec.faults_by_node.get(node, 0) + 1
        if refault:
            rec.refaults += 1
        # A fresh copy landed: open its read epoch.
        rec._epoch_reads[node] = 0

    def on_diff(self, thread, obj_id: int, dirty: int, begin_ns: int) -> None:
        """One diff flush of ``dirty`` bytes at interval close."""
        rec = self._record(obj_id)
        rec.diffs += 1
        rec.diff_bytes += dirty

    def on_invalidations(self, thread, obj_ids) -> None:
        """Write-notice application invalidated ``obj_ids`` on the
        thread's node."""
        node_id = thread.node_id
        for obj_id in obj_ids:
            rec = self._record(obj_id)
            rec.invalidations += 1
            reads = rec._epoch_reads.pop(node_id, None)
            if reads == 0:
                rec.dead_transfers += 1

    def on_summaries(self, thread, interval, summaries) -> None:
        """Fold the closed interval's exact access summaries."""
        node = thread.node_id
        tid = thread.thread_id
        for obj_id, summary in summaries.items():
            rec = self._record(obj_id)
            if summary.reads:
                rec.reads_by_node[node] = rec.reads_by_node.get(node, 0) + summary.reads
                if node in rec._epoch_reads:
                    rec._epoch_reads[node] += summary.reads
            if summary.writes:
                rec.writes_by_node[node] = rec.writes_by_node.get(node, 0) + summary.writes
                rec.writer_nodes.add(node)
                rec.writer_threads.add(tid)
                if rec.last_writer_node != node:
                    if rec.last_writer_node >= 0:
                        rec.writer_alternations += 1
                    rec.last_writer_node = node
        self.intervals += 1

    def on_barrier_release(
        self, barrier_id: int, parties: int, waiters, release_ns: int, threads_by_id
    ) -> None:
        """A barrier episode completed: advance the lifetime phase."""
        self.phase += 1
        self.phase_release_ns.append(release_ns)

    def on_oal_flush(self, thread, batch, begin_ns: int) -> None:
        """One shipped OAL batch: accumulate HT-scaled access mass."""
        for entry in batch.entries:
            rec = self._record(entry.obj_id)
            rec.ht_bytes += entry.scaled_bytes
