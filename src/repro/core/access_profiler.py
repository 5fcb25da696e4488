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
        piggyback: bool = True,
        enabled: bool = True,
    ) -> None:
        self.policy = policy
        self.cluster = cluster
        self.costs = cluster.costs
        self.gos = gos
        # Hot-path aliases (the cost model is frozen; the policy's state
        # containers and the GOS object list are mutated in place, never
        # replaced).
        self._objects = gos._objects
        self._gap_table = policy.gap_table
        self._policy_states = policy._states
        self._backend = policy.backend
        self._trap_ns = self.costs.gos_trap_ns
        self._log_ns_trap = self.costs.gos_trap_ns + self.costs.oal_log_ns
        #: the backend keeps a per-class epoch memo of its decisions,
        #: which the hot path probes inline before calling decision().
        self._memoized = self._backend.memoized
        #: by object id (GOS ids are dense list indices): the gap-1
        #: scaled bytes and the class id, which is all a fully-sampled
        #: class logs.  Grown on use to the GOS's length.
        self._bytes_col: list[int] = []
        self._class_col: list[int] = []
        #: destination daemon; anything with a ``deliver(OALBatch)`` method.
        self.collector = collector
        #: when False, OALs are generated and costed but never sent (the
        #: paper's O1-isolation methodology for Table II).
        self.send_oals = send_oals
        self.piggyback = piggyback
        self.enabled = enabled
        #: thread_id -> the open interval's OAL as plain-int columns:
        #: ``{obj_id: scaled_bytes}`` in log order plus the parallel
        #: class-id list; interval close ships them as the batch's columns.
        self._current: dict[int, tuple[dict[int, int], list[int]]] = {}
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
            n_objects += len(gos.objects_of_class(gos.registry.by_id(class_id)))
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
        if not self.enabled:
            return
        tid = thread.thread_id
        self._current[tid] = ({}, [])
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
        """ProtocolHooks: one access op executed (see class docstring)."""
        ids = [obj.obj_id]
        self.fast_on_access(thread, ids, ids if real_fault else ())

    def fast_on_access(self, thread, ids, faulted) -> list[int] | None:
        """The first-touch entry: ``ids`` are object ids first touched
        in the thread's open interval, in first-touch order, and
        ``faulted`` the ids among them that really faulted.  The scalar
        loop and :meth:`on_access` pass one id, the vector engine a
        whole run's; either way the result equals one call per id.
        Returns the clock charge made for each id (parallel to ``ids``),
        or None when nothing was logged."""
        if not self.enabled:
            return None
        current = self._current.get(thread.thread_id)
        if current is None:
            return None
        oal, class_ids = current
        asked = None
        if oal and not oal.keys().isdisjoint(ids):
            # At most once per interval: the keyword route repeats ids.
            asked = ids
            ids = [oid for oid in ids if oid not in oal]
            if not ids:
                return None
            faulted = [oid for oid in faulted if oid not in oal]
        bytes_col = self._bytes_col
        if len(bytes_col) < len(self._objects):
            self._grow_columns()
        # Trap into the GOS service routine.  A real fault already paid
        # the trap on the coherence path; false-invalid pays it here.
        log_trap = self._log_ns_trap
        log_only = log_trap - self._trap_ns
        if not self.policy.off_gap_one:
            # Every class is fully sampled: each object is logged with
            # its own size (Horvitz-Thompson scale 1), read off columns.
            oal.update(zip(ids, map(bytes_col.__getitem__, ids)))
            class_ids.extend(map(self._class_col.__getitem__, ids))
            logged = ids
            if faulted:
                charges = [log_only if oid in faulted else log_trap for oid in ids]
            else:
                charges = [log_trap] * len(ids)
        else:
            logged = []
            charges = []
            objects = self._objects
            for obj_id in ids:
                obj = objects[obj_id]
                class_id = obj.jclass.class_id
                if self._gap_table.get(class_id, 1) == 1:
                    scaled = bytes_col[obj_id]
                else:
                    # One lookup answers sampled/logged/scaled together:
                    # the per-class epoch memo probed inline, decision()
                    # on a miss or a stale cache.
                    dec = None
                    if self._memoized:
                        st = self._policy_states[class_id]
                        if st.cache_epoch == st.epoch:
                            dec = st.decisions.get(obj_id)
                    if dec is None:
                        dec = self.policy.decision(obj)
                    sampled, _logged, scaled = dec
                    if not sampled:
                        charges.append(0)
                        continue
                oal[obj_id] = scaled
                class_ids.append(class_id)
                logged.append(obj_id)
                charges.append(log_only if obj_id in faulted else log_trap)
            if not logged:
                return None
        ns = sum(charges)
        thread.cpu.oal_logging_ns += ns
        thread.clock._now_ns += ns
        self.total_logged += len(logged)
        if self.observers:
            interval_id = thread.current_interval.interval_id
            for obj_id in logged:
                for observer in self.observers:
                    observer.on_oal_log(thread, interval_id, obj_id)
        if asked is not None:
            by_id = dict(zip(ids, charges))
            charges = [by_id.get(oid, 0) for oid in asked]
        return charges

    def _grow_columns(self) -> None:
        """Extend the gap-1 byte and class-id columns over the objects
        allocated since the last call: an array's element payload (its
        amortized size at gap 1), a scalar's instance size."""
        for obj in self._objects[len(self._bytes_col) :]:
            jclass = obj.jclass
            self._bytes_col.append(
                obj.length * jclass.element_size if jclass.is_array else jclass.instance_size
            )
            self._class_col.append(jclass.class_id)

    def on_interval_close(
        self, thread, interval: IntervalRecord, sync_dst: int | None
    ) -> None:
        """ProtocolHooks: ``thread`` closed ``interval``."""
        if not self.enabled:
            return
        tid = thread.thread_id
        current = self._current.pop(tid, None)
        if current is None:
            return
        oal, class_ids = current
        self._previous_logged[tid] = len(oal)
        if not oal:
            return
        batch = OALBatch(
            thread_id=tid,
            interval_id=interval.interval_id,
            start_pc=interval.start_pc,
            end_pc=interval.end_pc,
            obj_ids=list(oal),
            scaled_bytes=list(oal.values()),
            class_ids=class_ids,
        )
        flush_begin_ns = thread.clock.now_ns
        # Pack the jumbo message.
        pack_ns = len(batch) * self.costs.oal_pack_ns_per_entry
        thread.cpu.oal_packing_ns += pack_ns
        thread.clock.advance(pack_ns)
        self.total_batches += 1

        if self.send_oals:
            master = self.cluster.master_id
            piggy = self.piggyback and sync_dst == master
            self.cluster.network.send(
                MessageKind.OAL,
                thread.node_id,
                master,
                batch.wire_bytes,
                piggybacked=piggy,
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
