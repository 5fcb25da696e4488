"""Home-based lazy release consistency (HLRC) protocol engine.

This is the global object space (GOS) of the simulated DJVM.  Key
behaviours mirrored from JESSICA2 / the HLRC literature (Zhou, Iftode &
Li, OSDI'96), at *object* granularity:

* Every shared object has a **home node** (its creator).  Other nodes
  hold **cache copies** faulted in on demand.
* Execution is divided into **intervals** delimited by synchronization
  (acquire / release / barrier).
* A write to a cache copy creates a **twin** (first write per interval)
  and accumulates dirty bytes; at release/barrier the **diff** is sent
  to the home, which bumps the object's version and publishes a **write
  notice**.
* At acquire/barrier, a node applies outstanding write notices and
  invalidates stale cache copies; the next access faults the fresh copy
  from home.
* **At-most-once property**: within an interval, coherence work per
  object happens at most once — the property the paper's profiler
  exploits to bound logging cost.

Profiler integration: the engine accepts *hooks* (see
:class:`ProtocolHooks`) invoked on interval open/close and on access
ops (interval first touches and the accesses of ids a hook re-armed, or
every op for a keyword hook: :meth:`HomeBasedLRC.add_hook`).
Hooks do their own cost accounting into the thread's CPU buckets, so
overhead experiments can attribute every nanosecond.
Everything that only *watches* (sanitizer, race detector, tracer,
object profiler) is a :class:`~repro.dsm.observer.ProtocolObserver` on
the engine's single ``observers`` list.

Scheduling approximation: threads run between sync points without
preemption (legal under LRC, where remote writes become visible only at
synchronization), and the interpreter always resumes the runnable thread
with the smallest simulated clock.
"""

from __future__ import annotations

from collections import Counter
from itertools import count
from operator import attrgetter
from typing import Protocol

from repro.dsm.intervals import IntervalRecord
from repro.dsm.observer import ProtocolObserver
from repro.dsm.states import CopyRecord, RealState
from repro.dsm.sync import SyncRegistry
from repro.heap.heap import GlobalObjectSpace, LocalHeap
from repro.heap.objects import HeapObject
from repro.obs.metrics import MetricsRegistry
from repro.sim.cluster import Cluster
from repro.sim.network import MessageKind


class ProtocolHooks(Protocol):
    """Interface a profiler implements to observe the protocol.

    An optional positional ``fast_on_access`` refines :meth:`on_access`
    (resolved by :meth:`HomeBasedLRC.add_hook`): the *first-touch
    entry*, batch-shaped, ``fast_on_access(thread, ids, faulted)``.
    ``ids`` are object ids first touched in the thread's open interval,
    in first-touch order, and ``faulted`` (a container supporting
    ``len`` and ``in``) the ids among them that really faulted.  One
    call with several ids must leave what one call per id, in order,
    would, and the entry must not read the clock.  It returns the clock
    charge it made for each id, as a list parallel to ``ids``, or
    ``None`` when it charged nothing: the vector engine places each
    charge at its id's first-touch op, the scalar loop ignores it.

    The scalar loop passes one id per first touch, hooks in registration
    order.  The vector engine's one pass calls each hook once per run
    with the run's first touches, hooks in registration order, before
    any clock is read — so the first-touch entries of different hooks
    must not observe one another.  At :meth:`on_interval_close` a hook
    may read every field of the interval record, on every route:
    ``touched`` holds every id the interval touched and ``written``
    every id it wrote, home copies included.  A hook may re-home objects
    there (:meth:`~repro.dsm.homemigration.HomeMigrationEngine.
    migrate_home`, as a home-migration policy does): that draws a new
    :attr:`HomeBasedLRC.home_epoch`, which retires the one pass's
    home-resident splits, so the run stays on the one pass.

    A *re-arming* hook (it defines ``on_rearmed_access``; the
    footprinter) may re-arm ids from its first-touch entry with
    ``thread.current_interval.rearm(ids, entries)``.  Each of
    ``entries`` — the hook's tracking entries, ``entry(thread,
    obj_id)`` — is then called at every access of the id for the rest
    of the interval, the arming first touch included, after every
    first-touch entry of that access.  Tracking entries see, and may
    charge, the clock the scalar loop would show at that access: the
    one pass stops at each re-armed access to give it that clock.
    """

    def on_interval_open(self, thread) -> None:
        """A new HLRC interval just opened for ``thread``."""
        ...

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
        """One access op executed by ``thread`` on ``obj``."""
        ...

    def on_interval_close(self, thread, interval: IntervalRecord, sync_dst: int | None) -> None:
        """``thread`` closed ``interval`` (sync_dst = manager node, if any)."""
        ...


#: coherence states hoisted to module level for the access fast path.
_HOME = RealState.HOME
_VALID = RealState.VALID
_INVALID = RealState.INVALID

#: what fixes a fault's price: home node, class and array length (the
#: object's size follows from the last two).
_FAULT_KEY = attrgetter("home_node", "jclass.class_id", "length")

#: process-wide source of home epochs (see :attr:`HomeBasedLRC.home_epoch`).
_HOME_EPOCHS = count()

#: request/reply/control message payload sizes (bytes).
FETCH_REQ_BYTES = 16
FETCH_REPLY_OVERHEAD = 16
DIFF_OVERHEAD = 24
LOCK_MSG_BYTES = 32
BARRIER_MSG_BYTES = 32
NOTICE_BYTES = 8


def fetch_wait_ns(network, size_bytes: int, node: int | None = None, home: int | None = None) -> int:
    """Network wait of one object fetch:
    request (:data:`FETCH_REQ_BYTES`) plus reply (object +
    :data:`FETCH_REPLY_OVERHEAD`), each priced by
    :meth:`~repro.sim.network.Network.message_ns` — exactly what
    :meth:`HomeBasedLRC._fault_remote`'s two sends return there.
    Without endpoints the latency is the fabric's flat figure."""
    return network.message_ns(FETCH_REQ_BYTES, node, home) + network.message_ns(
        size_bytes + FETCH_REPLY_OVERHEAD, home, node
    )


class HomeBasedLRC:
    """The GOS protocol engine shared by all threads of one DJVM."""

    def __init__(self, gos: GlobalObjectSpace, cluster: Cluster) -> None:
        self.gos = gos
        self.cluster = cluster
        self.costs = cluster.costs
        self.network = cluster.network
        self.sync = SyncRegistry(master_node=cluster.master_id)
        self.heaps: dict[int, LocalHeap] = {}
        for node in cluster.nodes:
            heap = LocalHeap(node.node_id)
            node.heap = heap
            self.heaps[node.node_id] = heap
        # Hot-path aliases (the cost model is frozen and the heap/GOS
        # containers are mutated in place, never replaced).
        self._objects = gos._objects
        self._copies_by_node = {nid: heap.copies for nid, heap in sorted(self.heaps.items())}
        self._access_busy_ns = self.costs.state_check_ns + self.costs.access_ns
        #: the placement of homes, as a tag: drawn from a process-wide
        #: counter here and at every re-homing (:meth:`new_home_epoch`),
        #: so no two engines, and no two placements of one engine, share
        #: a value.  Within one epoch a node's ``HOME`` copy stays
        #: ``HOME``; the vector engine's home-resident splits rely on it.
        self.home_epoch = next(_HOME_EPOCHS)
        #: global write-notice log: list of (obj_id, version).
        self.notices: list[tuple[int, int]] = []
        #: per-node index of the first unseen notice.
        self._notice_seen: dict[int, int] = {n.node_id: 0 for n in cluster.nodes}
        # Memoized (start, end, {obj_id: newest_version}) fold of the
        # notice range last applied — shared by every node draining the
        # same range at a barrier.
        self._latest_notices: tuple[int, int, dict[int, int]] | None = None
        #: profiler hooks in registration order; a tuple, so it grows
        #: only through :meth:`add_hook`, which resolves everything below.
        self.hooks: tuple[ProtocolHooks, ...] = ()
        # The dispatch plan: each hook's bound first-touch entry, called
        # on an interval first touch (None: keyword fan-out on every
        # access).
        self._on_first_touch: tuple | None = ()
        #: some hook in the plan re-arms ids (``"rearming"`` below), so
        #: the vector engine must stop at re-armed accesses.
        self.rearming = False
        #: the plan in words: ``(hook class name, "first_touch" |
        #: "rearming" | "keyword")`` per hook, in call order.
        self.dispatch_plan: tuple[tuple[str, str], ...] = ()
        #: the run's pure observers, in attach order (see :meth:`attach`).
        #: The migration engine, access profiler, correlation collector
        #: and interpreter emit into this same list object; every
        #: emission site guards the fan-out with one ``if observers:``.
        self.observers: list[ProtocolObserver] = []
        # The ``per_op`` subset: the only receivers of ``on_access``.
        self._per_op: list[ProtocolObserver] = []
        #: the ``ProfilerSuite`` wired into this engine, if any (set by
        #: the suite; announced to observers attached after it).
        self.suite = None
        #: optional connectivity prefetcher consulted at fault time
        #: (anything with ``bundle_for(thread, obj) -> list[HeapObject]``).
        #: NOT an observer — prefetching changes protocol behaviour.
        self.prefetcher = None
        #: the run's one metrics registry.  Protocol event counters live
        #: here as bound Counter handles, so an increment on the protocol
        #: path is a single attribute add; ``repro.obs.Telemetry`` binds
        #: its snapshot-time collectors to the same registry.
        self.metrics = MetricsRegistry()
        self._c_faults = self.metrics.counter(
            "hlrc_faults_total", "remote object faults (fetch round trips)"
        )
        self._c_invalidations = self.metrics.counter(
            "hlrc_invalidations_total", "cache copies invalidated by write notices"
        )
        self._c_diffs = self.metrics.counter(
            "hlrc_diffs_total", "diffs flushed to home nodes"
        )
        self._c_notices = self.metrics.counter(
            "hlrc_notices_total", "write notices published"
        )
        self._c_intervals = self.metrics.counter(
            "hlrc_intervals_total", "HLRC intervals closed"
        )

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------

    def attach(self, observer: ProtocolObserver) -> ProtocolObserver:
        """Add one observer to the run's single list and bind it to this
        engine; returns it.  A ``ProfilerSuite`` announces itself through
        ``on_suite_attach`` — to the observers present when it is built,
        and here to one attached after it."""
        if not isinstance(observer, ProtocolObserver):
            raise TypeError(
                f"observers must subclass ProtocolObserver, got {type(observer).__name__}"
            )
        if any(o is observer for o in self.observers):
            raise ValueError(f"{type(observer).__name__} is already attached")
        self.observers.append(observer)
        if observer.per_op:
            self._per_op.append(observer)
        observer.bind(self)
        if self.suite is not None:
            observer.on_suite_attach(self.suite)
        return observer

    # ------------------------------------------------------------------
    # profiler hooks
    # ------------------------------------------------------------------

    def add_hook(self, hook: ProtocolHooks) -> None:
        """Register a profiler hook and re-resolve the dispatch plan —
        the one place hook resolution happens.

        A hook with a positional ``fast_on_access`` is called on
        interval *first touches* only (that access cancels the
        false-invalid tag, so nothing later in the interval can trap),
        with the batch-shaped ``(thread, ids, faulted)`` of
        :class:`ProtocolHooks`.  A hook that also defines
        ``on_rearmed_access`` is ``"rearming"``: the footprinter re-arms
        the tags of the objects it sampled every tracking phase, so
        those — and only those — re-enter it at every access
        (:meth:`IntervalRecord.rearm`).  If any hook lacks
        ``fast_on_access``, all fall back to the keyword ``on_access``
        fan-out on every op: the oracle the plan is tested against.
        Planned hooks do not keep a run off the vector engine's one pass
        (:meth:`unobserved`), which hands them each run's first touches
        and stops at re-armed accesses.  Every route calls hooks in
        registration order."""
        hooks = self.hooks = (*self.hooks, hook)
        if all(hasattr(h, "fast_on_access") for h in hooks):
            modes = [
                "rearming" if hasattr(h, "on_rearmed_access") else "first_touch"
                for h in hooks
            ]
            self._on_first_touch = tuple(h.fast_on_access for h in hooks)
        else:
            modes = ["keyword"] * len(hooks)
            self._on_first_touch = None
        self.rearming = "rearming" in modes
        self.dispatch_plan = tuple((type(h).__name__, m) for h, m in zip(hooks, modes))

    def new_home_epoch(self) -> None:
        """Draw a new :attr:`home_epoch`: some object changed its home,
        so a ``HOME`` copy may have become a cache copy."""
        self.home_epoch = next(_HOME_EPOCHS)

    # ------------------------------------------------------------------
    # copies & faults
    # ------------------------------------------------------------------

    def _fault_remote(self, thread, obj: HeapObject, record: CopyRecord | None) -> CopyRecord:
        """Fault a remotely-homed object in: trap + request/reply round
        trip to the home (optionally bundling prefetched objects)."""
        node_id = thread.node_id
        heap = self.heaps[node_id]
        costs = self.costs
        clock = thread.clock
        cpu = thread.cpu
        refault = record is not None  # an invalidated copy is being replaced
        fault_begin_ns = clock._now_ns
        cpu.protocol_ns += costs.gos_trap_ns
        clock._now_ns += costs.gos_trap_ns

        # Connectivity prefetching (inter-object affinity): bundle
        # hot-path successors homed at the same node into the reply —
        # one round trip, bigger payload, fewer future faults.
        bundle: list[HeapObject] = []
        if self.prefetcher is not None:
            for extra in self.prefetcher.bundle_for(thread, obj):
                if extra.home_node != obj.home_node:
                    continue  # a different home cannot ride this reply
                existing: CopyRecord | None = heap.get(extra.obj_id)  # type: ignore[assignment]
                if existing is not None and existing.real_state is not RealState.INVALID:
                    continue
                bundle.append(extra)

        reply_bytes = obj.size_bytes + FETCH_REPLY_OVERHEAD
        if bundle:
            reply_bytes += sum(o.size_bytes + FETCH_REPLY_OVERHEAD for o in bundle)
        send = self.network.send
        wait = send(MessageKind.OBJECT_FETCH_REQ, node_id, obj.home_node, FETCH_REQ_BYTES)
        wait += send(MessageKind.OBJECT_FETCH_DATA, obj.home_node, node_id, reply_bytes)
        cpu.network_wait_ns += wait
        clock._now_ns += wait
        if record is None:
            record = CopyRecord(obj.obj_id, RealState.VALID, fetched_version=obj.home_version)
            heap.copies[obj.obj_id] = record
        else:
            record.real_state = RealState.VALID
            record.fetched_version = obj.home_version
        for extra in bundle:
            existing = heap.get(extra.obj_id)  # type: ignore[assignment]
            if existing is None:
                heap.put(
                    extra.obj_id,
                    CopyRecord(
                        extra.obj_id, RealState.VALID, fetched_version=extra.home_version
                    ),
                )
            else:
                existing.real_state = RealState.VALID
                existing.fetched_version = extra.home_version
        self._c_faults.inc()
        if self.observers:
            for observer in self.observers:
                observer.on_fault(thread, obj, refault, fault_begin_ns, 1 + len(bundle))
        return record

    def unobserved(self) -> bool:
        """True when nothing can observe a fault's intermediate clock
        values or its individual messages, except at the points the
        vector engine stops at: every profiler hook (if any) is planned
        (no ``keyword`` in :attr:`dispatch_plan`), no observer
        (recorders such as :class:`~repro.dsm.intervals.IntervalHistory`
        included), and no prefetcher.  Under this gate (plus no
        condition-driven timer and no pending migration, which the
        interpreter owns) a run's faults may be priced in one pass
        (:meth:`charge_faults`): every cost is an integer sum and a
        fetch's wait does not depend on its send time.  A run's first
        touches are known before any clock moves, so the first-touch
        entries may take them at once; re-armed accesses and timer
        deadlines are the clock stops the engine walks to."""
        return not (
            self._on_first_touch is None
            or self.observers
            or self.prefetcher is not None
        )

    def charge_faults(self, thread, faulted: list[HeapObject]) -> tuple[list, dict]:
        """Charge ``faulted`` remote faults of ``thread`` at once — the
        trap, request and reply of each, as :meth:`_fault_remote` would
        one by one — to the clock, the CPU buckets, ``hlrc_faults_total``
        and the traffic counters.  The caller has already created or
        refreshed the copies.  Only legal under :meth:`unobserved`.

        Faults are grouped by (home, class, length): each group's
        per-fault price is one :func:`fetch_wait_ns` (integer-truncated
        per message, never per sum), times its count.  Returns each
        fault's group key (parallel to ``faulted``) and each group's
        clock charge per fault (trap plus wait), for a caller that
        places the faults at their ops."""
        n = len(faulted)
        node_id = thread.node_id
        network = self.network
        trap_ns = self.costs.gos_trap_ns
        keys = list(map(_FAULT_KEY, faulted))
        sample = dict(zip(keys, faulted))
        prices = {}
        wait = reply_bytes = 0
        for key, count in Counter(keys).items():  # simlint: disable=SIM003 (integer sums; order cannot leak)
            size = sample[key].size_bytes
            fetch = fetch_wait_ns(network, size, node_id, key[0])
            prices[key] = trap_ns + fetch
            wait += count * fetch
            reply_bytes += count * (size + FETCH_REPLY_OVERHEAD)
        trap = n * trap_ns
        thread.cpu.protocol_ns += trap
        thread.cpu.network_wait_ns += wait
        thread.clock._now_ns += trap + wait
        stats = network.stats
        stats.record_bulk(MessageKind.OBJECT_FETCH_REQ, n, n * FETCH_REQ_BYTES)
        stats.record_bulk(MessageKind.OBJECT_FETCH_DATA, n, reply_bytes)
        self._c_faults.inc(n)
        return keys, prices

    # ------------------------------------------------------------------
    # access fast path
    # ------------------------------------------------------------------

    def access(
        self,
        thread,
        obj_id: int,
        is_write: bool = False,
        n_elems: int = 1,
        repeat: int = 1,
        elem_off: int = 0,
    ) -> None:
        """Execute ``repeat`` accesses touching ``n_elems`` distinct
        elements of one object (the interpreter's READ/WRITE op).

        This is the protocol's per-op fast path: the common valid-copy /
        home-copy case resolves with one dict probe on the node's local
        heap (no wrapper calls, no fault machinery), the interval touch
        is one set probe, and hook fan-out is skipped when no profiler
        is attached.
        """
        clock = thread.clock
        cpu = thread.cpu
        # JIT-inlined state check + the access itself, paid per access.
        busy = self._access_busy_ns * repeat
        cpu.access_ns += busy
        clock._now_ns += busy

        node_id = thread.node_id
        copies = self._copies_by_node[node_id]
        record: CopyRecord | None = copies.get(obj_id)
        if record is not None and record.real_state is not _INVALID:
            faulted = False  # valid cache copy or home copy: no coherence work
            obj = None  # resolved lazily; a plain hit never needs it
        else:
            obj = self._objects[obj_id]
            if obj.home_node == node_id:
                # Home copies materialize lazily and are always current
                # (a home copy can never be INVALID).
                if record is None:
                    record = CopyRecord(obj_id, _HOME)
                    copies[obj_id] = record
                faulted = False
            else:
                record = self._fault_remote(thread, obj, record)
                faulted = True

        if is_write and record.real_state is not _HOME:
            if obj is None:
                obj = self._objects[obj_id]
            if not record.has_twin:
                twin_ns = obj.size_bytes * self.costs.twin_ns_per_byte
                record.has_twin = True
                cpu.protocol_ns += twin_ns
                clock._now_ns += twin_ns
            if obj.is_array:
                written = n_elems * obj.jclass.element_size
            else:
                written = obj.jclass.instance_size
            record.dirty_bytes = min(record.dirty_bytes + written, obj.size_bytes)
            writers = record.writers
            if writers is None:
                record.writers = {thread.thread_id}
            else:
                writers.add(thread.thread_id)

        interval: IntervalRecord = thread.current_interval
        touched = interval.touched
        first_touch = obj_id not in touched
        if first_touch:
            touched.add(obj_id)
        if is_write:
            interval.written.add(obj_id)

        per_op = self._per_op
        if per_op:
            for observer in per_op:
                observer.on_access(thread, obj_id, is_write, repeat, record, obj, faulted)

        hooks = self.hooks
        if not hooks:
            return
        plan = self._on_first_touch
        if plan is None:
            if obj is None:
                obj = self._objects[obj_id]
            for hook in hooks:
                hook.on_access(
                    thread,
                    obj,
                    is_write=is_write,
                    n_elems=n_elems,
                    elem_off=elem_off,
                    repeat=repeat,
                    real_fault=faulted,
                )
            return
        # Only an object's first touch in an interval can trap for a
        # first-touch entry (that access cancels the false-invalid tag),
        # so those fire once per (interval, object), with a one-id batch;
        # then the tracking entries of whatever re-armed the id (see
        # add_hook), the arming first touch included.
        if first_touch:
            ids = [obj_id]
            hit = ids if faulted else ()
            for fast in plan:
                fast(thread, ids, hit)
        rearmed = interval.rearmed
        if rearmed:
            entries = rearmed.get(obj_id)
            if entries is not None:
                for track in entries:
                    track(thread, obj_id)

    # ------------------------------------------------------------------
    # intervals
    # ------------------------------------------------------------------

    def open_interval(self, thread) -> None:
        """Begin a new interval for ``thread``."""
        costs = self.costs
        clock = thread.clock
        thread.cpu.protocol_ns += costs.interval_open_ns
        clock._now_ns += costs.interval_open_ns
        thread.interval_counter += 1
        thread.current_interval = IntervalRecord(
            thread_id=thread.thread_id,
            interval_id=thread.interval_counter,
            start_pc=thread.pc,
            start_ns=clock._now_ns,
        )
        for hook in self.hooks:
            hook.on_interval_open(thread)
        if self.observers:
            for observer in self.observers:
                observer.on_interval_open(thread)

    def close_interval(self, thread, reason: str, sync_dst: int | None = None) -> IntervalRecord:
        """Close the thread's current interval: flush diffs, publish write
        notices, then hand the interval record to the profiler hooks."""
        costs = self.costs
        interval: IntervalRecord = thread.current_interval
        interval.end_pc = thread.pc
        interval.close_reason = reason

        copies = self._copies_by_node[thread.node_id]
        objects = self._objects
        clock = thread.clock
        cpu = thread.cpu
        notices = self.notices
        observers = self.observers
        tid = thread.thread_id
        # Flush diffs for cache copies this thread wrote.  Sorted: the
        # written set is hash-ordered, and diff/notice publication order
        # feeds network sends and the global notice log — iteration
        # order must not depend on interning accidents (SIM003).
        # Counter increments are batched per close, not per object.
        n_notices = n_diffs = diff_begin_ns = 0
        for obj_id in sorted(interval.written):
            record: CopyRecord | None = copies.get(obj_id)
            if record is None:
                continue
            obj = objects[obj_id]
            dirty = 0  # stays 0 for a home copy: nothing to flush
            if record.real_state is not _HOME:
                writers = record.writers
                if writers is None or tid not in writers:
                    continue
                dirty = max(record.dirty_bytes, 1)
                diff_begin_ns = clock._now_ns
                diff_ns = dirty * costs.diff_ns_per_byte
                cpu.protocol_ns += diff_ns
                clock._now_ns += diff_ns
                wait = self.network.send(
                    MessageKind.DIFF,
                    thread.node_id,
                    obj.home_node,
                    dirty + DIFF_OVERHEAD,
                )
                cpu.network_wait_ns += wait
                clock._now_ns += wait
                # The writer's copy now reflects the applied diff.
                record.fetched_version = obj.home_version + 1
                record.clear_interval_state()
                n_diffs += 1
            obj.home_version += 1
            notices.append((obj_id, obj.home_version))
            n_notices += 1
            if observers:
                for observer in observers:
                    if dirty:
                        observer.on_diff(thread, obj_id, dirty, diff_begin_ns)
                    observer.on_notice(thread, obj_id, obj.home_version)

        if n_diffs:
            self._c_diffs.inc(n_diffs)
        if n_notices:
            self._c_notices.inc(n_notices)
        cpu.protocol_ns += costs.interval_close_ns
        clock._now_ns += costs.interval_close_ns
        interval.end_ns = clock._now_ns
        self._c_intervals.inc()

        for hook in self.hooks:
            hook.on_interval_close(thread, interval, sync_dst)
        # Observers see the close after the hooks, so close-time work
        # (the profiler's OAL flush) nests inside the tracer's interval
        # span; the interval *record*'s end_ns above stays the
        # protocol-close instant.
        if observers:
            for observer in observers:
                observer.on_interval_close(thread, interval)
        return interval

    # ------------------------------------------------------------------
    # write-notice application
    # ------------------------------------------------------------------

    def apply_notices(self, thread) -> int:
        """Apply all unseen write notices on the thread's node, invalidating
        stale cache copies; returns the number of new notices consumed."""
        node_id = thread.node_id
        start = self._notice_seen[node_id]
        end = len(self.notices)
        observers = self.observers
        if observers:
            # Emitted even when no *new* notices are pending: diffs
            # applied at the node earlier are visible to this thread too
            # (node-shared cache copies), which the race detector's
            # diff-propagation edges need.
            for observer in observers:
                observer.on_apply_notices(thread, start, end)
        n_new = end - start
        if not n_new:
            return 0
        self._notice_seen[node_id] = end
        copies = self._copies_by_node[node_id]
        invalidated = 0
        inv_ids: list[int] | None = [] if observers else None
        if len(copies) < n_new:
            # Few copies, many notices: invert the scan.  Notices are
            # append-ordered, so dict() keeps each object's newest
            # version, and invalidating against the newest version flips
            # exactly the copies the notice-ordered walk would.  At a
            # barrier every node applies the same range, so the folded
            # dict is memoized on (start, end) — the list is append-only,
            # which makes that key sound — and built once per range
            # instead of once per node.
            memo = self._latest_notices
            if memo is not None and memo[0] == start and memo[1] == end:
                latest = memo[2]
            else:
                latest = dict(self.notices[start:end])
                self._latest_notices = (start, end, latest)
            for obj_id, record in copies.items():  # simlint: disable=SIM003 (hot path; per-record state flips are independent, order cannot leak)
                if record.real_state is _VALID:
                    version = latest.get(obj_id)
                    if version is not None and record.fetched_version < version:
                        record.real_state = _INVALID
                        invalidated += 1
                        if inv_ids is not None:
                            inv_ids.append(obj_id)
        else:
            for obj_id, version in self.notices[start:end]:
                record: CopyRecord | None = copies.get(obj_id)
                if record is None:
                    continue
                if record.real_state is _VALID and record.fetched_version < version:
                    record.real_state = _INVALID
                    invalidated += 1
                    if inv_ids is not None:
                        inv_ids.append(obj_id)
        if invalidated:
            ns = invalidated * self.costs.invalidate_ns
            thread.cpu.protocol_ns += ns
            thread.clock._now_ns += ns
            self._c_invalidations.inc(invalidated)
            if inv_ids:
                for observer in observers:
                    observer.on_invalidations(thread, inv_ids)
        return n_new

    def pending_notices(self, node_id: int) -> int:
        """Number of notices the node has not applied yet."""
        return len(self.notices) - self._notice_seen[node_id]

    # ------------------------------------------------------------------
    # synchronization operations
    # ------------------------------------------------------------------

    def acquire(self, thread, lock_id: int) -> bool:
        """Lock acquire: closes the current interval and sends the request
        to the manager.  Returns True if the lock was granted immediately
        (write notices applied, new interval opened); False if the lock is
        held — the thread is then parked in the lock's wait queue and the
        scheduler must block it until :meth:`release` hands the lock over.
        """
        costs = self.costs
        lock = self.sync.lock(lock_id)
        # Acquire delimits intervals under LRC.
        self.close_interval(thread, "acquire", sync_dst=lock.manager_node)
        thread.cpu.protocol_ns += costs.lock_local_ns
        thread.clock.advance(costs.lock_local_ns)

        node_id = thread.node_id
        now = thread.clock.now_ns
        wait = self.network.send(MessageKind.LOCK, node_id, lock.manager_node, LOCK_MSG_BYTES)
        arrival = now + wait
        if lock.holder is not None:
            lock.waiters.append((thread.thread_id, arrival))
            return False
        self._grant(thread, lock, lock.grant_time(arrival))
        return True

    def _grant(self, thread, lock, granted_ns: int) -> None:
        """Complete a lock grant: reply message (carrying write notices),
        clock alignment, invalidations, and a fresh interval."""
        node_id = thread.node_id
        notice_payload = self.pending_notices(node_id) * NOTICE_BYTES
        wait_back = self.network.send(
            MessageKind.LOCK,
            lock.manager_node,
            node_id,
            LOCK_MSG_BYTES + notice_payload,
        )
        before = thread.clock.now_ns
        thread.clock.advance_to(granted_ns + wait_back)
        thread.cpu.network_wait_ns += thread.clock.now_ns - before
        lock.holder = thread.thread_id
        lock.acquisitions += 1
        if self.observers:
            for observer in self.observers:
                observer.on_lock_acquire(thread, lock.lock_id)
        self.apply_notices(thread)
        self.open_interval(thread)

    def release(self, thread, lock_id: int, threads_by_id: dict | None = None) -> int | None:
        """Lock release: closes the interval (flushing diffs, publishing
        notices), notifies the manager, opens a new interval.  If waiters
        are queued, the lock is handed to the first one; its thread id is
        returned so the scheduler can unblock it (``threads_by_id`` is
        then required)."""
        costs = self.costs
        lock = self.sync.lock(lock_id)
        if lock.holder != thread.thread_id:
            raise RuntimeError(
                f"thread {thread.thread_id} released lock {lock_id} held by {lock.holder}"
            )
        self.close_interval(thread, "release", sync_dst=lock.manager_node)
        if self.observers:
            for observer in self.observers:
                observer.on_lock_release(thread, lock_id)
        thread.cpu.protocol_ns += costs.lock_local_ns
        thread.clock.advance(costs.lock_local_ns)
        now = thread.clock.now_ns
        wait = self.network.send(MessageKind.LOCK, thread.node_id, lock.manager_node, LOCK_MSG_BYTES)
        # Release is one-way: the thread does not block on the ack, but the
        # lock only becomes available when the message reaches the manager.
        lock.available_at_ns = now + wait
        lock.holder = None
        self.open_interval(thread)
        if lock.waiters:
            if threads_by_id is None:
                raise RuntimeError(
                    f"lock {lock_id} has waiters but no thread table was supplied"
                )
            waiter_id, arrival = lock.waiters.pop(0)
            waiter = threads_by_id[waiter_id]
            self._grant(waiter, lock, lock.grant_time(arrival))
            return waiter_id
        return None

    def barrier_arrive(self, thread, barrier_id: int, parties: int) -> bool:
        """Barrier arrival: closes the interval and registers at the
        barrier.  Returns True when the caller is the last arriver (the
        scheduler then schedules a ``BARRIER_RELEASE`` event whose
        dispatch calls :meth:`barrier_release`)."""
        barrier = self.sync.barrier(barrier_id, parties)
        self.close_interval(thread, "barrier", sync_dst=self.cluster.master_id)
        now = thread.clock.now_ns
        self.network.send(
            MessageKind.BARRIER, thread.node_id, self.cluster.master_id, BARRIER_MSG_BYTES
        )
        last = barrier.arrive(thread.thread_id, now)
        if self.observers:
            for observer in self.observers:
                observer.on_barrier_arrive(thread, barrier_id, parties)
        return last

    def barrier_release(self, threads_by_id: dict[int, object], barrier_id: int) -> int:
        """Complete a barrier episode: align clocks, distribute write
        notices, apply invalidations, and open fresh intervals.
        Returns the episode's release time (ns)."""
        costs = self.costs
        barrier = self.sync.barriers[barrier_id]
        release_ns, waiters = barrier.release_all()
        release_ns += costs.barrier_local_ns
        # Bursty asynchronous traffic that converged on the master (OAL
        # jumbo messages, prominently) must finish serializing before the
        # master's release messages go out — the paper's "rather bursty"
        # bandwidth consumption, surfacing as barrier latency.
        release_ns += self.network.drain_ingress_backlog(self.cluster.master_id)
        observers = self.observers
        for thread_id in waiters:
            thread = threads_by_id[thread_id]
            notice_payload = self.pending_notices(thread.node_id) * NOTICE_BYTES
            wait_back = self.network.send(
                MessageKind.BARRIER,
                self.cluster.master_id,
                thread.node_id,
                BARRIER_MSG_BYTES + notice_payload,
            )
            arrived_at = thread.clock.now_ns
            thread.clock.advance_to(release_ns + wait_back)
            thread.cpu.network_wait_ns += thread.clock.now_ns - arrived_at
            self.apply_notices(thread)
            if observers:
                for observer in observers:
                    observer.on_barrier_resume(thread, barrier_id)
            self.open_interval(thread)
        if observers:
            for observer in observers:
                observer.on_barrier_release(
                    barrier_id, barrier.parties, waiters, release_ns, threads_by_id
                )
        return release_ns
