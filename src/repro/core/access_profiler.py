"""Fine-grained active correlation tracking (paper Section II.A).

The profiler rides on the HLRC protocol's at-most-once property:

* On **interval open**, every sampled object the thread accessed in its
  previous interval is reset to *false-invalid* — the visible state bits
  are forced invalid while the real state moves to a side field — so the
  next access traps into the GOS service routine regardless of real
  coherence state.
* On an **access trap** to a sampled object (real fault or
  false-invalid), the access is appended to the thread's per-interval
  object access list (OAL), the false-invalid state is cancelled, and
  the real state is honoured.  Subsequent accesses in the same interval
  run the inlined fast path untouched.
* On **interval close**, the OAL is packed into a jumbo message for the
  master's correlation collector, piggybacked on the lock/barrier
  message when that synchronization already targets the master.

Cost accounting reproduces the paper's overhead decomposition: O1 (CPU
for generating OALs) lands in ``cpu.oal_logging_ns`` /
``cpu.oal_packing_ns``, O2 (network) in the OAL traffic counters, O3
(TCM construction) in the collector.
"""

from __future__ import annotations

from itertools import compress

from repro.core.oal import OALBatch
from repro.core.sampling import SamplingPolicy
from repro.dsm.intervals import IntervalRecord
from repro.heap.heap import GlobalObjectSpace
from repro.heap.objects import HeapObject
from repro.sim.cluster import Cluster
from repro.sim.network import MessageKind


class AccessProfiler:
    """Protocol hook implementing sampled, at-most-once access logging."""

    def __init__(
        self,
        policy: SamplingPolicy,
        cluster: Cluster,
        gos: GlobalObjectSpace,
        *,
        collector=None,
        send_oals: bool = True,
    ) -> None:
        self.policy = policy
        self.cluster = cluster
        self.costs = cluster.costs
        self.gos = gos
        # Hot-path aliases (the cost model is frozen).
        self._backend = policy.backend
        self._trap_ns = self.costs.gos_trap_ns
        self._log_ns_trap = self.costs.gos_trap_ns + self.costs.oal_log_ns
        #: destination daemon; anything with a ``deliver(OALBatch)`` method.
        self.collector = collector
        #: when False, OALs are generated and costed but never sent (the
        #: paper's O1-isolation methodology for Table II).
        self.send_oals = send_oals
        #: thread_id -> the open interval's OAL, ``{obj_id: scaled_bytes}``
        #: in log order; interval close ships it as the batch's columns,
        #: with the class ids read off the GOS's class column.
        self._current: dict[int, dict[int, int]] = {}
        #: thread_id -> how many objects the *previous* interval logged
        #: (these are the ones reset to false-invalid at open).
        self._previous_logged: dict[int, int] = {}
        #: node_id -> class ids with a pending resampling pass.
        self._pending_resample: dict[int, set[int]] = {}
        #: counters for reporting.
        self.total_logged = 0
        self.total_batches = 0
        self.resample_passes = 0
        #: the run's observer list (``HomeBasedLRC.observers``, shared
        #: by the ProfilerSuite); empty for a stand-alone profiler.
        self.observers = ()

    # ------------------------------------------------------------------
    # rate changes
    # ------------------------------------------------------------------

    def notify_rate_change(self, jclass) -> None:
        """Schedule the cluster-wide resampling pass a gap change requires:
        every node must re-tag its cached objects of the class.  The cost
        is charged to each node's next syncing thread (the paper measures
        this at under 0.1% of CPU time).  Stateless backends re-derive
        decisions from immutable object identity, so there are no
        per-object sample tags to re-tag and no pass is charged."""
        if not self._backend.needs_resample_pass:
            return
        for node in self.cluster.nodes:
            self._pending_resample.setdefault(node.node_id, set()).add(jclass.class_id)

    def _charge_pending_resample(self, thread) -> None:
        pending = self._pending_resample.get(thread.node_id)
        if not pending:
            return
        gos = self.gos
        n_objects = 0
        # Sorted so the per-class registry walk is deterministic (SIM003).
        for class_id in sorted(pending):
            n_objects += len(gos.ids_of_class(gos.registry.by_id(class_id)))
        pending.clear()
        ns = n_objects * self.costs.sample_check_ns
        thread.cpu.resampling_ns += ns
        thread.clock.advance(ns)
        self.resample_passes += 1

    # ------------------------------------------------------------------
    # ProtocolHooks interface
    # ------------------------------------------------------------------

    def on_interval_open(self, thread) -> None:
        """ProtocolHooks: a new HLRC interval just opened for ``thread``."""
        tid = thread.thread_id
        self._current[tid] = {}
        self._charge_pending_resample(thread)
        # Reset last interval's logged objects to false-invalid.
        n_prev = self._previous_logged.get(tid)
        if n_prev:
            ns = n_prev * self.costs.false_invalid_reset_ns
            thread.cpu.oal_logging_ns += ns
            thread.clock.advance(ns)

    def on_access(
        self,
        thread,
        obj: HeapObject,
        *,
        is_write: bool,
        n_elems: int,
        elem_off: int,
        repeat: int,
        real_fault: bool,
    ) -> None:
        """ProtocolHooks: one access op executed (see class docstring).
        The keyword route calls it on every access, so it skips an id
        the open interval already logged (at most once per interval)."""
        current = self._current.get(thread.thread_id)
        if current is None or obj.obj_id in current:
            return
        ids = [obj.obj_id]
        self.fast_on_access(thread, ids, ids if real_fault else ())

    def fast_on_access(self, thread, ids, faulted) -> list[int] | None:
        """The first-touch entry: ``ids`` are object ids first touched
        in the thread's open interval, in first-touch order, and
        ``faulted`` the ids among them that really faulted.  The scalar
        loop and :meth:`on_access` pass one id, the vector engine a
        whole run's; either way the result equals one call per id.  Ids
        new to the interval's touched set cannot be in its OAL (a subset
        of that set), so nothing here checks for a repeat.  Returns the
        clock charge made for each id (parallel to ``ids``), or None
        when nothing was logged."""
        oal = self._current.get(thread.thread_id)
        if oal is None:
            return None
        # One decision per first touch, shared with every other
        # first-touch entry handed the same ids (SamplingPolicy.first_touches).
        sampled, scaled = self.policy.first_touches(ids, self.gos)
        # Trap into the GOS service routine and log.
        log_trap = self._log_ns_trap
        if sampled is None:
            logged = ids
        else:
            logged = list(compress(ids, sampled))
            if not logged:
                return None
            scaled = compress(scaled, sampled)
        oal.update(zip(logged, scaled))
        if sampled is None:
            charges = [log_trap] * len(ids)
        else:
            charges = list(map(log_trap.__mul__, sampled))
        if faulted:
            # A real fault already paid the trap on the coherence path.
            trap_ns = self._trap_ns
            for k in compress(range(len(ids)), map(faulted.__contains__, ids)):
                if charges[k]:
                    charges[k] -= trap_ns
        ns = sum(charges)
        thread.cpu.oal_logging_ns += ns
        thread.clock._now_ns += ns
        self.total_logged += len(logged)
        if self.observers:
            interval_id = thread.current_interval.interval_id
            for obj_id in logged:
                for observer in self.observers:
                    observer.on_oal_log(thread, interval_id, obj_id)
        return charges

    def on_interval_close(
        self, thread, interval: IntervalRecord, sync_dst: int | None
    ) -> None:
        """ProtocolHooks: ``thread`` closed ``interval``."""
        tid = thread.thread_id
        oal = self._current.pop(tid, None)
        if oal is None:
            return
        self._previous_logged[tid] = len(oal)
        if not oal:
            return
        obj_ids = list(oal)
        batch = OALBatch(
            thread_id=tid,
            interval_id=interval.interval_id,
            start_pc=interval.start_pc,
            end_pc=interval.end_pc,
            obj_ids=obj_ids,
            scaled_bytes=list(oal.values()),
            class_ids=self.gos.cls_np.take(obj_ids).tolist(),
        )
        flush_begin_ns = thread.clock.now_ns
        # Pack the jumbo message.
        pack_ns = len(batch) * self.costs.oal_pack_ns_per_entry
        thread.cpu.oal_packing_ns += pack_ns
        thread.clock.advance(pack_ns)
        self.total_batches += 1

        if self.send_oals:
            master = self.cluster.master_id
            self.cluster.network.send(
                MessageKind.OAL,
                thread.node_id,
                master,
                batch.wire_bytes,
                piggybacked=sync_dst == master,
            )
            # OAL shipping is asynchronous (piggybacked on the outgoing
            # sync message when possible); the sender pays only the
            # serialization time, never the wire latency.
            serialize_ns = self.cluster.network.transfer_time_ns(
                batch.wire_bytes, piggybacked=True
            )
            thread.cpu.network_wait_ns += serialize_ns
            thread.clock.advance(serialize_ns)
            # The master's NIC must also serialize the burst before the
            # next barrier release can go out (remote senders only).
            if thread.node_id != master:
                self.cluster.network.add_ingress_backlog(master, serialize_ns)
        if self.observers:
            for observer in self.observers:
                observer.on_oal_flush(thread, batch, flush_begin_ns)
        if self.collector is not None:
            self.collector.deliver(batch, now_ns=thread.clock.now_ns)
