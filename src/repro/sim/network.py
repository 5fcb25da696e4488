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
headed to the same destination.  :meth:`Network.send` with
``piggybacked=True`` prices a payload riding an already-paid carrier: it
pays only its serialized bytes (no extra latency or header).

Contention: every send is priced instantly with the alpha-beta formula,
so concurrent transfers on one link overlap for free.  The one burst the
model charges is the *ingress backlog*: asynchronous traffic converging
on one node (OAL jumbo messages shipped to the master) queues behind
that node's NIC, and the synchronization that rendezvouses there
drains it into its latency (:meth:`Network.add_ingress_backlog`).

Topology (opt-in): per-pair latency is an **O(1) formula**, never an
eagerly allocated O(n²) table — a 256-node cluster costs the same to
build as an 8-node one.  The default is the flat (uniform) fabric;
:class:`RackTopology` models a two-tier switch hierarchy (cheap
intra-rack hops, expensive cross-rack hops).
"""

from __future__ import annotations

import enum

from repro.util.validation import check_non_negative, check_positive

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

    # Members are singletons compared by identity, so the identity hash
    # agrees with equality; it runs at C speed where ``Enum.__hash__``
    # (a hash of the name) is a Python call per dict lookup.
    __hash__ = object.__hash__


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


class TrafficStats:
    """Aggregated traffic counters.

    Internally one ``{kind: [bytes, count]}`` accumulator so the per-send
    hot path pays a single (identity) hash; the public per-kind dicts
    are materialized on demand.
    """

    __slots__ = ("messages", "piggybacked_messages", "_by_kind")

    def __init__(self) -> None:
        self.messages = 0
        self.piggybacked_messages = 0
        self._by_kind: dict[MessageKind, list[int]] = {}

    def record_bulk(self, kind: MessageKind, count: int, total_bytes: int) -> None:
        """Fold ``count`` delivered, non-piggybacked messages of one kind
        carrying ``total_bytes`` together — the same counters as
        ``count`` :meth:`Network.send` calls (a zero count records
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
        self.stats = TrafficStats()
        #: cluster size this network is bound to (None until a Cluster
        #: adopts it); when set, send() validates node ids against it.
        self._n_nodes: int | None = None
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

    def message_ns(self, size_bytes: int, src: int | None = None, dst: int | None = None) -> int:
        """One-way delivery time of one non-piggybacked message
        carrying ``size_bytes`` of payload: latency + (payload + header)
        serialization, truncated to whole nanoseconds per message.

        The one pricing formula: :meth:`send` returns it for every
        non-piggybacked message, and bulk pricing (the vector engine's batched
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
        *,
        piggybacked: bool = False,
    ) -> int:
        """Account for one message and return its one-way delivery time.

        Local messages (``src == dst``) cost nothing and are not recorded:
        the GOS never serializes them.  A ``piggybacked`` payload rides
        an already-paid carrier to the same destination and pays only
        its serialized bytes.

        This is the protocol's per-message hot path: the stats fold and
        the transfer-time arithmetic are inlined.
        """
        n_nodes = self._n_nodes
        if n_nodes is not None and not (0 <= src < n_nodes and 0 <= dst < n_nodes):
            raise ValueError(
                f"message endpoints ({src} -> {dst}) outside the bound "
                f"cluster of {n_nodes} nodes"
            )
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
            return int(size_bytes / self.bandwidth_bytes_per_s * NS_PER_S)
        return self.message_ns(size_bytes, src, dst)

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
