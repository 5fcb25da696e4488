"""Cluster interconnect model with per-category traffic accounting.

The model is the standard latency/bandwidth (alpha-beta) abstraction:
transferring ``size`` bytes between two distinct nodes costs

    latency + header_overhead + size / bandwidth

Messages between a node and itself are free (the GOS short-circuits
local "remote" operations).  Every message is tagged with a
:class:`MessageKind` so experiments can separate protocol traffic (object
fetches, diffs, lock/barrier control) from profiling traffic (OAL jumbo
messages) — the split Table III reports.

Piggybacking: the paper piggybacks OAL messages on lock/barrier requests
headed to the same destination.  :meth:`Network.send` accepts
``piggyback_on`` naming an already-paid carrier message; a piggybacked
payload pays only its serialized bytes (no extra latency or header).
A carrier headed to a different destination is rejected — a payload
cannot ride a message that will not arrive where the payload must go.

Queueing (opt-in): by default every send is priced instantly with the
alpha-beta formula, so concurrent transfers on one link overlap for
free.  With ``queueing=True`` each directed link keeps a busy cursor:
concurrent sends FIFO-serialize (a message may start serializing no
earlier than the link frees up), which models the per-link contention of
bursty traffic — OAL jumbo messages converging on the master, diff
storms at barriers.  When an :class:`~repro.sim.events.EventLoop` is
attached, each queued send also schedules a ``MESSAGE_DELIVER`` event at
its arrival time, so delivery is observable in the kernel's event trace
and consumable by asynchronous subscribers.

Topology (opt-in): per-pair latency is an **O(1) formula**, never an
eagerly allocated O(n²) table — a 256-node cluster costs the same to
build as an 8-node one.  The default is the flat (uniform) fabric;
:class:`RackTopology` models a two-tier switch hierarchy (cheap
intra-rack hops, expensive cross-rack hops).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import EventLoop

NS_PER_S = 1_000_000_000


class MessageKind(enum.Enum):
    """Categories of cluster traffic, used for accounting."""

    OBJECT_FETCH_REQ = "object_fetch_req"
    OBJECT_FETCH_DATA = "object_fetch_data"
    DIFF = "diff"
    WRITE_NOTICE = "write_notice"
    LOCK = "lock"
    BARRIER = "barrier"
    OAL = "oal"
    MIGRATION = "migration"
    PREFETCH = "prefetch"
    CONTROL = "control"

    @property
    def is_profiling(self) -> bool:
        """True for traffic generated by the profiler rather than the GOS."""
        return self is MessageKind.OAL


#: Kinds that count towards "GOS message volume" in Table III (everything
#: the base protocol sends; profiling traffic is reported separately).
GOS_KINDS = frozenset(
    {
        MessageKind.OBJECT_FETCH_REQ,
        MessageKind.OBJECT_FETCH_DATA,
        MessageKind.DIFF,
        MessageKind.WRITE_NOTICE,
        MessageKind.LOCK,
        MessageKind.BARRIER,
        MessageKind.CONTROL,
    }
)


@dataclass(frozen=True)
class Message:
    """One simulated message: a piggyback carrier, or the payload of a
    queued delivery event."""

    kind: MessageKind
    src: int
    dst: int
    size_bytes: int
    time_ns: int
    piggybacked: bool = False


class TrafficStats:
    """Aggregated traffic counters.

    Internally one ``{kind: [bytes, count]}`` accumulator so the per-send
    hot path pays a single enum hash; the public per-kind dicts are
    materialized on demand.
    """

    __slots__ = ("messages", "piggybacked_messages", "_by_kind")

    def __init__(self) -> None:
        self.messages = 0
        self.piggybacked_messages = 0
        self._by_kind: dict[MessageKind, list[int]] = {}

    def record(self, msg: Message) -> None:
        """Fold one delivered message into the counters."""
        self.record_traffic(msg.kind, msg.size_bytes, msg.piggybacked)

    def record_traffic(self, kind: MessageKind, size_bytes: int, piggybacked: bool = False) -> None:
        """Fold one delivered message into the counters (unbundled form)."""
        self.messages += 1
        rec = self._by_kind.get(kind)
        if rec is None:
            self._by_kind[kind] = [size_bytes, 1]
        else:
            rec[0] += size_bytes
            rec[1] += 1
        if piggybacked:
            self.piggybacked_messages += 1

    def record_bulk(self, kind: MessageKind, count: int, total_bytes: int) -> None:
        """Fold ``count`` delivered, non-piggybacked messages of one kind
        carrying ``total_bytes`` together — the same counters as
        ``count`` :meth:`record_traffic` calls (a zero count records
        nothing, so no empty kind appears)."""
        if not count:
            return
        self.messages += count
        rec = self._by_kind.get(kind)
        if rec is None:
            self._by_kind[kind] = [total_bytes, count]
        else:
            rec[0] += total_bytes
            rec[1] += count

    @property
    def bytes_by_kind(self) -> dict[MessageKind, int]:
        """Total bytes per message kind."""
        return {
            kind: rec[0]
            for kind, rec in sorted(self._by_kind.items(), key=lambda kv: kv[0].value)
        }

    @property
    def count_by_kind(self) -> dict[MessageKind, int]:
        """Message count per message kind."""
        return {
            kind: rec[1]
            for kind, rec in sorted(self._by_kind.items(), key=lambda kv: kv[0].value)
        }

    @property
    def total_bytes(self) -> int:
        """Total bytes across every message kind."""
        return sum(rec[0] for rec in self._by_kind.values())  # simlint: disable=SIM003 (integer sum; order cannot leak)

    def bytes_for(self, *kinds: MessageKind) -> int:
        """Total bytes over the given kinds."""
        by_kind = self._by_kind
        total = 0
        for k in kinds:
            rec = by_kind.get(k)
            if rec is not None:
                total += rec[0]
        return total

    @property
    def gos_bytes(self) -> int:
        """Bytes of base-protocol (non-profiling) traffic."""
        return self.bytes_for(*GOS_KINDS)

    @property
    def oal_bytes(self) -> int:
        """Bytes of OAL (correlation-profiling) traffic."""
        return self.bytes_for(MessageKind.OAL)


class Topology:
    """Per-pair latency as an O(1) formula (see module docstring).

    Subclasses override :meth:`latency_ns` (a pure function of the two
    endpoints).  Nothing here may allocate per-pair state: construction
    cost must be independent of fan-out.
    """

    def latency_ns(self, src: int, dst: int) -> int:
        """One-way latency between two distinct nodes (ns)."""
        raise NotImplementedError


class UniformTopology(Topology):
    """Flat fabric: every distinct pair sees the same latency."""

    __slots__ = ("_latency_ns",)

    def __init__(self, latency_ns: int = 120_000) -> None:
        check_non_negative(latency_ns, "latency_ns")
        self._latency_ns = int(latency_ns)

    def latency_ns(self, src: int, dst: int) -> int:
        return self._latency_ns


class RackTopology(Topology):
    """Two-tier switch hierarchy: nodes ``[k*rack_size, (k+1)*rack_size)``
    share a rack switch; same-rack hops pay ``intra_ns``, cross-rack hops
    traverse the spine and pay ``cross_ns``.  Pure integer-division
    formula — no per-pair allocation at any cluster size."""

    __slots__ = ("rack_size", "intra_ns", "cross_ns")

    def __init__(self, rack_size: int, intra_ns: int = 60_000, cross_ns: int = 120_000) -> None:
        check_positive(rack_size, "rack_size")
        check_non_negative(intra_ns, "intra_ns")
        check_non_negative(cross_ns, "cross_ns")
        if cross_ns < intra_ns:
            raise ValueError(
                f"cross-rack latency {cross_ns} cannot undercut intra-rack {intra_ns}"
            )
        self.rack_size = int(rack_size)
        self.intra_ns = int(intra_ns)
        self.cross_ns = int(cross_ns)

    def latency_ns(self, src: int, dst: int) -> int:
        if src // self.rack_size == dst // self.rack_size:
            return self.intra_ns
        return self.cross_ns


class Network:
    """Latency/bandwidth interconnect with traffic accounting.

    Defaults model Fast Ethernet as used on the Gideon 300 cluster:
    ~120 us one-way software+wire latency and 100 Mbit/s (= 12.5 MB/s)
    of usable bandwidth.

    An optional :class:`Topology` replaces the flat ``latency_ns`` with a
    per-pair O(1) formula; bandwidth and header cost stay fabric-wide.
    """

    def __init__(
        self,
        latency_ns: int = 120_000,
        bandwidth_bytes_per_s: float = 12.5e6,
        header_bytes: int = 60,
        *,
        queueing: bool = False,
        topology: Topology | None = None,
    ) -> None:
        check_non_negative(latency_ns, "latency_ns")
        check_positive(bandwidth_bytes_per_s, "bandwidth_bytes_per_s")
        check_non_negative(header_bytes, "header_bytes")
        self.latency_ns = int(latency_ns)
        self.bandwidth_bytes_per_s = float(bandwidth_bytes_per_s)
        self.header_bytes = int(header_bytes)
        #: optional per-pair latency formula (None = flat fabric).
        self.topology = topology
        #: FIFO per-link serialization (see module docstring).  Off by
        #: default: sends are priced instantly and never contend.
        self.queueing = bool(queueing)
        self.stats = TrafficStats()
        #: cluster size this network is bound to (None until a Cluster
        #: adopts it); when set, send() validates node ids against it.
        self._n_nodes: int | None = None
        #: directed link (src, dst) -> time the link frees up (queueing).
        self._link_busy_ns: dict[tuple[int, int], int] = {}
        #: event kernel for deferred MESSAGE_DELIVER events (optional).
        self._kernel: "EventLoop | None" = None
        #: subscriber invoked with each delivered queued Message.
        self.on_deliver: Callable[[Message], None] | None = None
        #: per-node ingress serialization backlog (ns): bursty asynchronous
        #: traffic (e.g. OAL jumbo messages converging on the master at a
        #: barrier) queues behind the receiver's NIC; synchronization that
        #: rendezvouses at that node drains the backlog into its latency.
        self._ingress_backlog_ns: dict[int, int] = {}

    def bind_cluster(self, n_nodes: int) -> None:
        """Bind to a cluster of ``n_nodes``; send() then rejects node ids
        outside ``[0, n_nodes)``.  Called by :class:`~repro.sim.cluster.
        Cluster` when it adopts the network."""
        check_positive(n_nodes, "n_nodes")
        self._n_nodes = int(n_nodes)

    def attach_kernel(self, kernel: "EventLoop") -> None:
        """Attach the event kernel that receives MESSAGE_DELIVER events
        for queued sends."""
        self._kernel = kernel

    def message_ns(self, size_bytes: int, src: int | None = None, dst: int | None = None) -> int:
        """One-way delivery time of one unqueued, non-piggybacked message
        carrying ``size_bytes`` of payload: latency + (payload + header)
        serialization, truncated to whole nanoseconds per message.

        The one pricing formula: :meth:`send` returns it for every
        unqueued message, and bulk pricing (the vector engine's batched
        faults) sums it per message.  With both endpoints the latency
        honours the topology; without them it is the flat
        ``latency_ns`` figure (a :class:`RackTopology` is then priced as
        if flat)."""
        if src is None or self.topology is None:
            latency = self.latency_ns
        else:
            latency = self.topology.latency_ns(src, dst)
        return latency + int((size_bytes + self.header_bytes) / self.bandwidth_bytes_per_s * NS_PER_S)

    def transfer_time_ns(self, size_bytes: int, *, piggybacked: bool = False) -> int:
        """Time to move ``size_bytes`` one way between two distinct nodes
        at the flat (topology-free) latency figure; per-pair pricing goes
        through :meth:`send` / :meth:`message_ns` with endpoints."""
        check_non_negative(size_bytes, "size_bytes")
        if piggybacked:
            return int(size_bytes / self.bandwidth_bytes_per_s * NS_PER_S)
        return self.message_ns(size_bytes)

    def send(
        self,
        kind: MessageKind,
        src: int,
        dst: int,
        size_bytes: int,
        time_ns: int,
        *,
        piggybacked: bool = False,
        piggyback_on: Message | None = None,
    ) -> int:
        """Account for one message and return its one-way delivery time.

        Local messages (``src == dst``) cost nothing and are not recorded:
        the GOS never serializes them.

        ``piggyback_on`` names the already-paid carrier message the
        payload rides on; the carrier must connect the same endpoints
        (a payload cannot ride a message headed elsewhere).  Passing a
        carrier implies ``piggybacked=True``.

        With queueing enabled, the message FIFO-serializes behind
        earlier traffic on its directed link, and the returned delivery
        time includes the time spent waiting for the link.

        This is the protocol's per-message hot path: the stats fold and
        the transfer-time arithmetic are inlined, and no Message record
        is materialized unless a queued send schedules its delivery.
        """
        n_nodes = self._n_nodes
        if n_nodes is not None and not (0 <= src < n_nodes and 0 <= dst < n_nodes):
            raise ValueError(
                f"message endpoints ({src} -> {dst}) outside the bound "
                f"cluster of {n_nodes} nodes"
            )
        if piggyback_on is not None:
            if piggyback_on.dst != dst:
                raise ValueError(
                    f"cannot piggyback a message for node {dst} on a "
                    f"carrier headed to node {piggyback_on.dst}"
                )
            if piggyback_on.src != src:
                raise ValueError(
                    f"cannot piggyback a message from node {src} on a "
                    f"carrier sent by node {piggyback_on.src}"
                )
            piggybacked = True
        if src == dst:
            return 0
        size_bytes = int(size_bytes)
        stats = self.stats
        stats.messages += 1
        rec = stats._by_kind.get(kind)
        if rec is None:
            stats._by_kind[kind] = [size_bytes, 1]
        else:
            rec[0] += size_bytes
            rec[1] += 1
        if piggybacked:
            stats.piggybacked_messages += 1
        if self.queueing:
            return self._send_queued(kind, src, dst, size_bytes, int(time_ns), piggybacked)
        if piggybacked:
            return int(size_bytes / self.bandwidth_bytes_per_s * NS_PER_S)
        return self.message_ns(size_bytes, src, dst)

    def _send_queued(
        self,
        kind: MessageKind,
        src: int,
        dst: int,
        size_bytes: int,
        time_ns: int,
        piggybacked: bool,
    ) -> int:
        """Contended-link pricing: serialize behind the link's busy
        cursor, push the cursor, and schedule the delivery event."""
        wire_bytes = size_bytes if piggybacked else size_bytes + self.header_bytes
        serialization_ns = int(wire_bytes / self.bandwidth_bytes_per_s * NS_PER_S)
        link = (src, dst)
        busy = self._link_busy_ns.get(link, 0)
        start_ns = busy if busy > time_ns else time_ns
        done_ns = start_ns + serialization_ns
        self._link_busy_ns[link] = done_ns
        topology = self.topology
        latency = self.latency_ns if topology is None else topology.latency_ns(src, dst)
        deliver_ns = done_ns if piggybacked else done_ns + latency
        kernel = self._kernel
        if kernel is not None:
            from repro.sim.events import EventKind

            msg = Message(kind, src, dst, size_bytes, deliver_ns, piggybacked)
            on_deliver = self.on_deliver
            callback = (
                (lambda event, _cb=on_deliver, _m=msg: _cb(_m))
                if on_deliver is not None
                else None
            )
            kernel.schedule(
                EventKind.MESSAGE_DELIVER, deliver_ns, actor=dst, data=msg,
                callback=callback,
            )
        return deliver_ns - time_ns

    def link_busy_until_ns(self, src: int, dst: int) -> int:
        """Time the directed link frees up (0 if never used / no queueing)."""
        return self._link_busy_ns.get((src, dst), 0)

    def add_ingress_backlog(self, node_id: int, ns: int) -> None:
        """Queue ``ns`` of serialization work at ``node_id``'s NIC."""
        check_non_negative(ns, "backlog ns")
        self._ingress_backlog_ns[node_id] = self._ingress_backlog_ns.get(node_id, 0) + int(ns)

    def drain_ingress_backlog(self, node_id: int) -> int:
        """Consume and return the node's accumulated ingress backlog."""
        return self._ingress_backlog_ns.pop(node_id, 0)

    def reset_stats(self) -> None:
        """Zero traffic counters (e.g. after a warm-up phase)."""
        self.stats = TrafficStats()
        self._ingress_backlog_ns = {}
        self._link_busy_ns = {}
