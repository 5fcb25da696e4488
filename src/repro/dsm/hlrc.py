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

import hashlib
from array import array
from itertools import compress
from operator import not_
from typing import Protocol

import numpy as np

from repro.dsm.intervals import NO_BOUND, IntervalRecord
from repro.dsm.observer import ProtocolObserver
from repro.dsm.states import ABSENT, HOME, INVALID, STATE_OF, VALID, CopyState
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
    migrate_home`, as a home-migration policy does); the one pass reads
    every copy's state at each run, so the run stays on it.

    A run has at most one *re-arming* hook (it defines
    ``on_rearmed_access``; the footprinter).  Its first-touch entry may
    re-arm ids by adding them to ``thread.current_interval.rearmed``.
    Every access of a re-armed id for the rest of the interval, the
    arming first touch included, then goes to its *tracking entry*,
    after every first-touch entry of that access.  The tracking entry
    is batch-shaped, ``on_rearmed_access(thread, ids, clocks, bound) ->
    (done, charged)``:

    - ``ids`` are accesses of re-armed ids (a *stop* each), in op
      order, and ``clocks[k]`` is the clock the scalar loop shows at the
      k-th stop, less what this call charges;
    - the entry takes the stops in order, each at ``clocks[k]`` plus
      what it charged so far, and charges the clock and its CPU bucket
      itself;
    - it returns before the first stop whose clock, so computed, has
      reached ``bound``, with the number of stops it took (``done``)
      and the nanoseconds it charged (``charged``).

    The scalar loop calls it with one stop and
    :data:`~repro.dsm.intervals.NO_BOUND`.  The vector engine's one pass
    hands it a run's stops at once, bounded by the next timer deadline;
    at the stop it returns before, the pass fires the timers as the
    scalar loop would, takes that stop alone and resumes with the rest.
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


#: what fixes a fault's price at a node: home node, class and array
#: length (the payload follows from the last two).
#: the twin entry of a copy no thread wrote this interval.
_UNWRITTEN = (0, frozenset())

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
        self._access_busy_ns = self.costs.state_check_ns + self.costs.access_ns
        # The fault price tables (see :meth:`charge_faults`): each
        # object's price class (0: none yet), the class of each fault
        # key (each class's key and reply bytes by class,
        # class 0 unused), and per node each class's trap plus fetch
        # wait there (0: not priced there yet).
        self._price_class = array("q")
        self._class_of: dict[tuple, int] = {}
        self._class_keys: list[tuple | None] = [None]
        self._class_reply: list[int] = [0]
        self._class_prices: dict[int, list[int]] = {nid: [0] for nid in self.heaps}
        #: each object's home version (``array('q')`` by object id, and
        #: ``home_version_np`` a numpy view of it): bumped by
        #: :meth:`publish` alone.  Like the heaps' columns it is replaced
        #: when the space grows (:meth:`resize`).
        self.home_version = array("q")
        self.home_version_np = np.frombuffer(self.home_version, dtype=np.int64)
        gos.add_columns(self)
        #: the global write-notice log as a running SHA-256: each block
        #: (one per closing interval, or per flush at a migration) folds
        #: in its length, its object ids ascending and the home version
        #: each notice published, as little-endian int64 bytes
        #: (:meth:`publish`).  Notice ordinals run through the blocks in
        #: order; nothing reads a past notice back, so none is kept.
        self._notice_digest = hashlib.sha256()
        #: notices published so far (the ordinal after the last one).
        self.n_notices = 0
        #: per-node ordinal of the first unseen notice (every apply
        #: drains the log to its end).
        self._notice_seen: dict[int, int] = {n.node_id: 0 for n in cluster.nodes}
        #: profiler hooks in registration order; a tuple, so it grows
        #: only through :meth:`add_hook`, which resolves everything below.
        self.hooks: tuple[ProtocolHooks, ...] = ()
        # The dispatch plan: each hook's bound first-touch entry, called
        # on an interval first touch (None: keyword fan-out on every
        # access).
        self._on_first_touch: tuple | None = ()
        #: the re-arming hook's tracking entry when the plan has one
        #: (``"rearming"`` below); the vector engine then stops at
        #: re-armed accesses.
        self.tracker = None
        #: the plan in words: ``(hook class name, "first_touch" |
        #: "rearming" | "keyword")`` per hook, in call order.
        self.dispatch_plan: tuple[tuple[str, str], ...] = ()
        #: the run's pure observers, in attach order (see :meth:`attach`).
        #: The migration engine, access profiler, correlation collector
        #: and interpreter emit into this same list object; every
        #: emission site guards the fan-out with one ``if observers:``.
        self.observers: list[ProtocolObserver] = []
        # Resolved at attach: the observers overriding ``on_access``, and
        # those overriding it or ``on_fault`` (see unobserved()).
        self._on_access: list[ProtocolObserver] = []
        self._per_access: list[ProtocolObserver] = []
        #: the ``ProfilerSuite`` wired into this engine, if any (set by
        #: the suite; announced to observers attached after it).
        self.suite = None
        #: the connectivity prefetcher consulted at fault time: the one
        #: hook with ``bundle_for(thread, obj) -> list[HeapObject]``, set
        #: by :meth:`add_hook`.  NOT an observer — prefetching changes
        #: protocol behaviour.
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
        engine; returns it.  ``on_access`` goes only to an observer whose
        class overrides it.  A ``ProfilerSuite`` announces itself through
        ``on_suite_attach`` — to the observers present when it is built,
        and here to one attached after it."""
        if not isinstance(observer, ProtocolObserver):
            raise TypeError(
                f"observers must subclass ProtocolObserver, got {type(observer).__name__}"
            )
        if any(o is observer for o in self.observers):
            raise ValueError(f"{type(observer).__name__} is already attached")
        self.observers.append(observer)
        cls = type(observer)
        on_access = cls.on_access is not ProtocolObserver.on_access
        if on_access:
            self._on_access.append(observer)
        if on_access or cls.on_fault is not ProtocolObserver.on_fault:
            self._per_access.append(observer)
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
        those — and only those — re-enter its tracking entry at every
        access (the batch contract of :class:`ProtocolHooks`); a second
        re-arming hook is rejected.  If any hook lacks
        ``fast_on_access``, all fall back to the keyword ``on_access``
        fan-out on every op: the oracle the plan is tested against.
        Planned hooks do not keep a run off the vector engine's one pass
        (:meth:`unobserved`), which hands them each run's first touches
        and stops at re-armed accesses.  Every route calls hooks in
        registration order.

        A hook that defines ``bundle_for`` is also the run's
        :attr:`prefetcher` (its access hook feeds the learner, its
        ``bundle_for`` acts at fault time); a second one is rejected."""
        if hasattr(hook, "on_rearmed_access"):
            held = next((h for h in self.hooks if hasattr(h, "on_rearmed_access")), None)
            if held is not None:
                raise ValueError(
                    f"a re-arming hook ({type(held).__name__}) is already attached"
                )
        if hasattr(hook, "bundle_for"):
            if self.prefetcher is not None:
                raise ValueError(
                    f"a prefetcher ({type(self.prefetcher).__name__}) is already attached"
                )
            self.prefetcher = hook
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
        self.tracker = next(
            (h.on_rearmed_access for h, m in zip(hooks, modes) if m == "rearming"), None
        )
        self.dispatch_plan = tuple((type(h).__name__, m) for h, m in zip(hooks, modes))

    # ------------------------------------------------------------------
    # copies & faults
    # ------------------------------------------------------------------

    def resize(self, capacity: int) -> None:
        """Lengthen the per-object columns (this engine's and every
        heap's) to ``capacity``: the GOS calls it as it grows
        (:meth:`~repro.heap.heap.GlobalObjectSpace.add_columns`)."""
        grow = capacity - len(self.home_version)
        for name in ("home_version", "_price_class"):
            column = array("q", getattr(self, name))
            column.frombytes(bytes(8 * grow))
            setattr(self, name, column)
        self.home_version_np = np.frombuffer(self.home_version, dtype=np.int64)
        for node_id in sorted(self.heaps):
            self.heaps[node_id].resize(capacity)

    def copy(self, node_id: int, obj_id: int) -> CopyState | None:
        """Node ``node_id``'s copy of ``obj_id`` read off the columns —
        the one accessor of copy state for everything but the protocol's
        own paths — or None when the node holds none."""
        heap = self.heaps[node_id]
        code = heap.state[obj_id]
        if code == ABSENT:
            return None
        twin = heap.twins.get(obj_id)
        return CopyState(
            STATE_OF[code],
            heap.fetched[obj_id],
            twin is not None,
            0 if twin is None else twin[0],
            None if twin is None else frozenset(twin[1]),
        )

    def copy_ids(self, node_id: int) -> list[int]:
        """The ids node ``node_id`` holds a copy of, ascending."""
        return np.flatnonzero(self.heaps[node_id].state_np).tolist()

    def _fault_remote(self, thread, obj: HeapObject, refault: bool) -> None:
        """Fault a remotely-homed object in: trap + request/reply round
        trip to the home (optionally bundling prefetched objects), and a
        ``VALID`` copy of each at the thread's node.  ``refault``: an
        invalidated copy is being replaced."""
        node_id = thread.node_id
        heap = self.heaps[node_id]
        costs = self.costs
        clock = thread.clock
        cpu = thread.cpu
        fault_begin_ns = clock._now_ns
        cpu.protocol_ns += costs.gos_trap_ns
        clock._now_ns += costs.gos_trap_ns

        # Connectivity prefetching (inter-object affinity): bundle
        # hot-path successors homed at the same node into the reply —
        # one round trip, bigger payload, fewer future faults.
        gos = self.gos
        home = gos.home[obj.obj_id]
        bundle: list[HeapObject] = []
        if self.prefetcher is not None:
            state = heap.state
            for extra in self.prefetcher.bundle_for(thread, obj):
                if gos.home[extra.obj_id] != home:
                    continue  # a different home cannot ride this reply
                if state[extra.obj_id] >= VALID:
                    continue
                bundle.append(extra)

        reply_bytes = gos.size_bytes(obj.obj_id) + FETCH_REPLY_OVERHEAD
        if bundle:
            reply_bytes += sum(gos.size_bytes(o.obj_id) + FETCH_REPLY_OVERHEAD for o in bundle)
        send = self.network.send
        wait = send(MessageKind.OBJECT_FETCH_REQ, node_id, home, FETCH_REQ_BYTES)
        wait += send(MessageKind.OBJECT_FETCH_DATA, home, node_id, reply_bytes)
        cpu.network_wait_ns += wait
        clock._now_ns += wait
        state, fetched, home_version = heap.state, heap.fetched, self.home_version
        for fetched_obj in (obj, *bundle):
            obj_id = fetched_obj.obj_id
            state[obj_id] = VALID
            fetched[obj_id] = home_version[obj_id]
        self._c_faults.inc()
        if self.observers:
            for observer in self.observers:
                observer.on_fault(thread, obj, refault, fault_begin_ns, 1 + len(bundle))

    def unobserved(self) -> bool:
        """True when nothing can observe a fault's intermediate clock
        values or its individual messages, except at the points the
        vector engine stops at: every profiler hook (if any) is planned
        (no ``keyword`` in :attr:`dispatch_plan`), no observer of
        ``on_access`` or ``on_fault`` (recorders such as
        :class:`~repro.dsm.intervals.IntervalHistory` included), and no
        prefetcher.  Under this gate (plus no
        condition-driven timer and no pending migration, which the
        interpreter owns) a run's faults may be priced in one pass
        (:meth:`charge_faults`): every cost is an integer sum and a
        fetch's wait does not depend on its send time.  A run's first
        touches are known before any clock moves, so the first-touch
        entries may take them at once; re-armed accesses and timer
        deadlines are the clock stops the engine walks to."""
        return not (
            self._on_first_touch is None
            or self._per_access
            or self.prefetcher is not None
        )

    def charge_faults(self, thread, faulted: list[int]) -> list[int]:
        """Charge the remote faults of the ids ``faulted`` (distinct) of
        ``thread`` at once — the trap, request and reply of each, as
        :meth:`_fault_remote` would one by one — to the clock, the CPU
        buckets, ``hlrc_faults_total`` and the traffic counters.  The
        caller has already created or refreshed the copies.  Only legal
        under :meth:`unobserved`.

        A fault's price (trap plus fetch wait) and reply bytes follow
        from the object's home, class and array length (its fault key).  Each object's *price class* — its key's
        index — is a column, set at the object's first fault and cleared
        by a re-homing; each node prices a class the first time it
        faults one, from :func:`fetch_wait_ns` (integer-truncated per
        message, never per sum).  So a fault costs two indexed reads,
        and only an object's first fault looks at the object.  Returns
        each fault's clock charge, parallel to ``faulted``, for a caller
        that places the faults at their ops."""
        node_id = thread.node_id
        classes = list(map(self._price_class.__getitem__, faulted))
        if 0 in classes:
            classes = self._classify(faulted)
        table = self._class_prices[node_id]
        if len(table) < len(self._class_keys):
            table.extend([0] * (len(self._class_keys) - len(table)))
        prices = list(map(table.__getitem__, classes))
        if 0 in prices:
            trap_ns = self.costs.gos_trap_ns
            for c in sorted(set(compress(classes, map(not_, prices)))):
                size = self._class_reply[c] - FETCH_REPLY_OVERHEAD
                home = self._class_keys[c][0]
                table[c] = trap_ns + fetch_wait_ns(self.network, size, node_id, home)
            prices = list(map(table.__getitem__, classes))
        n = len(faulted)
        charge = sum(prices)
        trap = n * self.costs.gos_trap_ns
        thread.cpu.protocol_ns += trap
        thread.cpu.network_wait_ns += charge - trap
        thread.clock._now_ns += charge
        stats = self.network.stats
        stats.record_bulk(MessageKind.OBJECT_FETCH_REQ, n, n * FETCH_REQ_BYTES)
        replies = sum(map(self._class_reply.__getitem__, classes))
        stats.record_bulk(MessageKind.OBJECT_FETCH_DATA, n, replies)
        self._c_faults.inc(n)
        return prices

    def _classify(self, faulted: list[int]) -> list[int]:
        """Give each id of ``faulted`` without one its price class (a
        new class for a new key, numbered in first-fault order); returns
        the classes of ``faulted``.  The ids are grouped by one int64
        key per (home, class, length), so only a distinct key reaches
        the class table."""
        column = np.frombuffer(self._price_class, dtype=np.int64)
        ids = np.array(faulted, dtype=np.intp)
        new = ids[column.take(ids) == 0]
        if new.size:
            gos = self.gos
            home, cls, length = gos.home_np.take(new), gos.cls_np.take(new), gos.length_np.take(new)
            n_homes, n_cls = int(home.max()) + 1, int(cls.max()) + 1
            key = (length * n_cls + cls) * n_homes + home
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            classes = np.empty(first.size, dtype=np.int64)
            for u in np.argsort(first).tolist():
                obj_id = int(new[first[u]])
                key = (gos.home[obj_id], gos.cls[obj_id], gos.length[obj_id])
                c = self._class_of.get(key)
                if c is None:
                    c = self._class_of[key] = len(self._class_keys)
                    self._class_keys.append(key)
                    self._class_reply.append(gos.size_bytes(obj_id) + FETCH_REPLY_OVERHEAD)
                classes[u] = c
            column[new] = classes[inverse.ravel()]
        return column.take(ids).tolist()

    def forget_price(self, obj_id: int) -> None:
        """Clear ``obj_id``'s price class: its home moved, and a fault's
        price depends on the home."""
        self._price_class[obj_id] = 0

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
        home-copy case resolves with one read of the node's state byte
        (no wrapper calls, no fault machinery), the interval touch is
        one set probe, and hook fan-out is skipped when no profiler is
        attached.
        """
        clock = thread.clock
        cpu = thread.cpu
        # JIT-inlined state check + the access itself, paid per access.
        busy = self._access_busy_ns * repeat
        cpu.access_ns += busy
        clock._now_ns += busy

        node_id = thread.node_id
        heap = self.heaps[node_id]
        code = heap.state[obj_id]
        if code >= VALID:
            faulted = False  # valid cache copy or home copy: no coherence work
            obj = None  # resolved lazily; a plain hit never needs it
        else:
            obj = HeapObject(self.gos, obj_id)
            if self.gos.home[obj_id] == node_id:
                # Home copies materialize lazily and are always current
                # (a home copy can never be INVALID).
                code = heap.state[obj_id] = HOME
                faulted = False
            else:
                self._fault_remote(thread, obj, code == INVALID)
                code = VALID
                faulted = True

        if is_write and code != HOME:
            gos = self.gos
            jclass = gos.registry.by_id(gos.cls[obj_id])
            size = gos.payload[obj_id]
            if jclass.is_array:
                written = n_elems * jclass.element_size
                size += jclass.instance_size
            else:
                written = size
            twin = heap.twins.get(obj_id)
            if twin is None:
                twin = heap.twins[obj_id] = [0, {thread.thread_id}]
                twin_ns = size * self.costs.twin_ns_per_byte
                cpu.protocol_ns += twin_ns
                clock._now_ns += twin_ns
            else:
                twin[1].add(thread.thread_id)
            twin[0] = min(twin[0] + written, size)

        interval: IntervalRecord = thread.current_interval
        touched = interval.touched
        first_touch = obj_id not in touched
        if first_touch:
            touched.add(obj_id)
        if is_write:
            interval.written.add(obj_id)

        on_access = self._on_access
        if on_access:
            for observer in on_access:
                observer.on_access(thread, obj_id, is_write, repeat, STATE_OF[code], obj, faulted)

        hooks = self.hooks
        if not hooks:
            return
        plan = self._on_first_touch
        if plan is None:
            if obj is None:
                obj = HeapObject(self.gos, obj_id)
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
        # then the tracking entry, if the id is re-armed (see add_hook),
        # the arming first touch included.
        if first_touch:
            ids = [obj_id]
            hit = ids if faulted else ()
            for fast in plan:
                fast(thread, ids, hit)
        if obj_id in interval.rearmed:
            self.tracker(thread, (obj_id,), (clock._now_ns,), NO_BOUND)

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
        notices (:meth:`flush_writes`), then hand the interval record to
        the profiler hooks.  The ids written on nodes a migration left
        (:attr:`IntervalRecord.flushed`, flushed at each move) join the
        written set again first, so a hook reads every id written."""
        interval: IntervalRecord = thread.current_interval
        interval.end_pc = thread.pc
        interval.close_reason = reason
        self.flush_writes(thread)
        if interval.flushed:
            interval.written |= interval.flushed
        close_ns = self.costs.interval_close_ns
        thread.cpu.protocol_ns += close_ns
        thread.clock._now_ns += close_ns
        interval.end_ns = thread.clock._now_ns
        self._c_intervals.inc()

        for hook in self.hooks:
            hook.on_interval_close(thread, interval, sync_dst)
        # Observers see the close after the hooks, so close-time work
        # (the profiler's OAL flush) nests inside the tracer's interval
        # span; the interval *record*'s end_ns above stays the
        # protocol-close instant.
        if self.observers:
            for observer in self.observers:
                observer.on_interval_close(thread, interval)
        return interval

    def flush_writes(self, thread) -> None:
        """Flush what the thread's open interval wrote on its node: at
        its close, and at a migration before the thread leaves.

        The written ids, ascending, split by one gather of their state
        bytes: a cache copy this thread wrote (its twin lists the
        thread) flushes a diff and a home copy only publishes.  The
        published ids go out as one block (:meth:`publish`)."""
        written = thread.current_interval.written
        if not written:
            return
        costs = self.costs
        node_id = thread.node_id
        heap = self.heaps[node_id]
        home = self.gos.home
        clock = thread.clock
        cpu = thread.cpu
        observers = self.observers
        tid = thread.thread_id
        twins = heap.twins
        # Sorted: the written set is hash-ordered, and diff/notice
        # publication order feeds network sends and the global notice
        # log — iteration order must not depend on interning accidents
        # (SIM003).  Counter increments are batched per flush.
        ids = sorted(written)
        block = np.array(ids, dtype=np.intp)
        published = heap.state_np[block] == HOME
        diffs = []
        if not published.all():
            at = np.flatnonzero(~published).tolist()
            at = [k for k in at if tid in twins.get(ids[k], _UNWRITTEN)[1]]
            published[at] = True
            block = block[published]
            diffs = list(map(ids.__getitem__, at))
            ids = list(compress(ids, published.tobytes()))
        if ids:
            self.publish(block)
            self._c_notices.inc(len(ids))
        # Observers see every notice in log order, each diff's event
        # right after its flush.
        home_version = self.home_version
        fetched = heap.fetched
        for obj_id in ids if observers else diffs:
            twin = twins.pop(obj_id, None) if heap.state[obj_id] != HOME else None
            dirty = 0  # stays 0 for a home copy: nothing to flush
            if twin is not None:
                dirty = max(twin[0], 1)
                diff_begin_ns = clock._now_ns
                diff_ns = dirty * costs.diff_ns_per_byte
                cpu.protocol_ns += diff_ns
                clock._now_ns += diff_ns
                wait = self.network.send(
                    MessageKind.DIFF, node_id, home[obj_id], dirty + DIFF_OVERHEAD
                )
                cpu.network_wait_ns += wait
                clock._now_ns += wait
                # The writer's copy now reflects the applied diff.
                fetched[obj_id] = home_version[obj_id]
            if observers:
                for observer in observers:
                    if dirty:
                        observer.on_diff(thread, obj_id, dirty, diff_begin_ns)
                    observer.on_notice(thread, obj_id, home_version[obj_id])
        if diffs:
            self._c_diffs.inc(len(diffs))

    # ------------------------------------------------------------------
    # write notices
    # ------------------------------------------------------------------

    def publish(self, block: np.ndarray) -> None:
        """Bump the home version of each object of ``block`` (distinct
        ids ascending, as an ``intp`` array) and log a write notice for
        each, as one block folded into the log's digest: the one place
        a home version moves, so every bump has its notice at once."""
        home_version = self.home_version_np
        home_version[block] += 1
        n = len(block)
        digest = self._notice_digest
        digest.update(n.to_bytes(8, "little"))
        digest.update(block.astype("<i8", copy=False).tobytes())
        digest.update(home_version[block].astype("<i8", copy=False).tobytes())
        self.n_notices += n

    def notice_digest(self) -> str:
        """The hex SHA-256 of every notice block published so far."""
        return self._notice_digest.hexdigest()

    def apply_notices(self, thread) -> int:
        """Apply all unseen write notices on the thread's node, invalidating
        stale cache copies; returns the number of new notices consumed.

        A ``VALID`` cache copy is stale iff some unseen notice for its
        object carries a newer version than the copy's.  Every version
        bump logs its notice at once (:meth:`publish`) and the unseen
        range always runs to the end of the log, so an object's newest
        unseen notice carries its current home version.  An object with
        no unseen notice has not moved since this node last applied: a
        copy of it fetched since holds the current version, and an older
        copy was invalidated by that apply.  So the test is one compare
        of the node's fetched-version column against the home versions,
        over its ``VALID`` copies."""
        node_id = thread.node_id
        start = self._notice_seen[node_id]
        end = self.n_notices
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
        heap = self.heaps[node_id]
        state = heap.state_np
        valid = (state == VALID).nonzero()[0]
        stale = valid[heap.fetched_np[valid] < self.home_version_np[valid]]
        if stale.size:
            state[stale] = INVALID
            invalidated = len(stale)
            ns = invalidated * self.costs.invalidate_ns
            thread.cpu.protocol_ns += ns
            thread.clock._now_ns += ns
            self._c_invalidations.inc(invalidated)
            if observers:
                inv_ids = stale.tolist()
                for observer in observers:
                    observer.on_invalidations(thread, inv_ids)
        return n_new

    def pending_notices(self, node_id: int) -> int:
        """Number of notices the node has not applied yet."""
        return self.n_notices - self._notice_seen[node_id]

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
