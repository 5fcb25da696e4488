"""Object home migration — the paper's Section VI direction, realized.

JESSICA2's evaluation runs with home migration enabled: an object whose
accesses are dominated by one remote node should be *re-homed* there,
turning that node's diffs and faults into local operations.  The paper
defers the policy ("our active correlation tracking mechanism still
needs to be enhanced for taking home effect into account"); this module
supplies both the mechanism and a simple dominant-writer policy driven
by the same per-interval access statistics the profiler already gathers.

Mechanism (:meth:`HomeMigrationEngine.migrate_home`): re-homing an
object ships its current payload to the new home (one message), flips
the old home's state byte to a valid cache copy's and the new node's to
HOME.  A small control message updates the object's home
directory entry (the GOS is the directory in this simulation).  The
data does not change, so no write notice goes out: every valid copy
stays valid, and a fault or diff flush reads the object's home at the
time it happens.

Policy (:class:`DominantWriterPolicy`): per closed interval, count each
node's writes per object; when one remote node's share of recent writes
exceeds ``threshold`` over at least ``min_writes`` writes, propose
re-homing to it.  Hysteresis (``cooldown_writes``) prevents homes
from thrashing between alternating writers — the exact pathology the
paper's "tricky cases" sentence worries about.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field

from repro.dsm.hlrc import HomeBasedLRC
from repro.dsm.intervals import IntervalRecord
from repro.dsm.states import ABSENT, HOME, VALID
from repro.heap.objects import HeapObject
from repro.sim.network import MessageKind

#: control-message size for a home-directory update.
HOME_UPDATE_BYTES = 24
#: payload framing overhead when shipping the object to its new home.
REHOME_OVERHEAD_BYTES = 16


@dataclass
class HomeMigrationStats:
    """Counters for one engine instance."""

    migrations: int = 0
    bytes_shipped: int = 0
    #: obj_id -> number of times re-homed (thrash detector).
    per_object: dict[int, int] = field(default_factory=dict)


class HomeMigrationEngine:
    """Mechanism: re-home objects at interval boundaries."""

    def __init__(self, hlrc: HomeBasedLRC) -> None:
        self.hlrc = hlrc
        self.stats = HomeMigrationStats()

    def migrate_home(self, obj: HeapObject, new_home: int) -> None:
        """Move ``obj``'s home to ``new_home`` immediately.

        Safe only between the object's write intervals (callers invoke it
        from interval-close hooks); pending dirty state at the old home
        is already flushed by then.  The object's price class is
        cleared: a fault's price depends on the home.
        """
        old_home = obj.home_node
        if new_home == old_home:
            return
        if not 0 <= new_home < len(self.hlrc.cluster):
            raise ValueError(f"node {new_home} out of range")
        network = self.hlrc.network
        # Ship the payload old -> new plus a directory update.
        network.send(
            MessageKind.OBJECT_FETCH_DATA,
            old_home,
            new_home,
            obj.size_bytes + REHOME_OVERHEAD_BYTES,
        )
        network.send(MessageKind.CONTROL, old_home, new_home, HOME_UPDATE_BYTES)

        obj_id = obj.obj_id
        heaps = self.hlrc.heaps
        # Old home's copy becomes a plain (valid) cache copy.
        old_heap = heaps[old_home]
        if old_heap.state[obj_id] != ABSENT:
            old_heap.state[obj_id] = VALID
            old_heap.fetched[obj_id] = self.hlrc.home_version[obj_id]

        # New home gets the authoritative copy; a cache copy it held
        # keeps its fetched version and drops its twin.
        new_heap = heaps[new_home]
        new_heap.state[obj_id] = HOME
        new_heap.twins.pop(obj_id, None)

        self.hlrc.gos.home[obj_id] = new_home
        self.hlrc.forget_price(obj_id)

        self.stats.migrations += 1
        self.stats.bytes_shipped += obj.size_bytes
        self.stats.per_object[obj.obj_id] = self.stats.per_object.get(obj.obj_id, 0) + 1


class DominantWriterPolicy:
    """Policy + protocol hook: observe per-interval writes, re-home
    objects to their dominant writer's node.

    Each object keeps a sliding window of the nodes its last
    ``min_writes`` write-intervals came from (self-normalizing: an
    object written once per round fills its window in ``min_writes``
    rounds regardless of how many threads or intervals the rest of the
    system produces).  Once the window is full and one non-home node
    owns at least ``threshold`` of it, the object re-homes there.  A
    per-object cooldown of ``cooldown_writes`` further write events
    provides the hysteresis that keeps alternating-writer objects from
    thrashing between homes.
    """

    def __init__(
        self,
        engine: HomeMigrationEngine,
        *,
        threshold: float = 0.6,
        min_writes: int = 4,
        cooldown_writes: int = 8,
    ) -> None:
        if not 0.5 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0.5, 1], got {threshold}")
        if min_writes < 1:
            raise ValueError(f"min_writes must be >= 1, got {min_writes}")
        self.engine = engine
        self.threshold = threshold
        self.min_writes = min_writes
        self.cooldown_writes = cooldown_writes
        #: obj_id -> recent writer nodes (bounded window).
        self._recent: dict[int, deque[int]] = {}
        #: obj_id -> write events seen at the last re-homing.
        self._migrated_at_event: dict[int, int] = {}
        #: obj_id -> total write events observed.
        self._events: dict[int, int] = defaultdict(int)
        self.proposals = 0

    # -- ProtocolHooks interface ------------------------------------------

    def on_interval_open(self, thread) -> None:
        """ProtocolHooks: a new HLRC interval just opened for ``thread``."""
        pass

    def on_access(self, thread, obj, **kwargs) -> None:
        """ProtocolHooks: one access op executed (see class docstring)."""
        pass

    def fast_on_access(self, thread, ids, faulted) -> None:
        """ProtocolHooks first-touch entry: the policy reads only the
        written set at close, so first touches cost it nothing and the
        run keeps the one pass."""
        return None

    def on_interval_close(self, thread, interval: IntervalRecord, sync_dst) -> None:
        """ProtocolHooks: ``thread`` closed ``interval``."""
        node = thread.node_id
        gos = self.engine.hlrc.gos
        # Sorted so window/event accrual order is deterministic (SIM003).
        for obj_id in sorted(interval.written):
            window = self._recent.get(obj_id)
            if window is None:
                window = deque(maxlen=self.min_writes)
                self._recent[obj_id] = window
            window.append(node)
            self._events[obj_id] += 1
            self._consider(gos.get(obj_id))

    # -- decision -----------------------------------------------------------

    def _consider(self, obj: HeapObject) -> None:
        events = self._events[obj.obj_id]
        last = self._migrated_at_event.get(obj.obj_id)
        if last is not None and events - last < self.cooldown_writes:
            return
        window = self._recent[obj.obj_id]
        if len(window) < self.min_writes:
            return
        counts = Counter(window)
        node, top = counts.most_common(1)[0]
        if node == obj.home_node:
            return
        if top / len(window) >= self.threshold:
            self.proposals += 1
            self.engine.migrate_home(obj, node)
            self._migrated_at_event[obj.obj_id] = events
            window.clear()
