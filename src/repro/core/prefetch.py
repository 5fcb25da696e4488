"""Inter-object affinity: access-path-driven connectivity prefetching.

The paper's affinity taxonomy (Section II) has three members: (1)
thread-thread, (2) thread-object — both handled by its two profilers —
and (3) **inter-object** affinity, "dealt with object prefetching and
home migration", whose profiling technique ("access path analysis") the
authors present in the companion paper [19].  This module supplies the
natural realization over this reproduction's substrate:

* **Learning** (:class:`PathProfile`): after a thread faults an object,
  watch which of that object's *reference fields* the thread follows
  within the next ``window`` accesses.  Statistics aggregate per
  (class, field index) — "threads that fault a ``Body`` dereference its
  position vector 93% of the time" — which is exactly the class-level
  path signal access-path analysis extracts.
* **Acting** (:class:`ConnectivityPrefetcher`): on a remote fault, walk
  the faulted object's hot fields (heat >= ``threshold``) transitively
  up to ``max_depth`` and bundle those objects into the same fault
  reply.  One round trip replaces several; mispredictions only cost
  reply bytes, never extra latency.

Enabling this is one registration on a built DJVM,
``djvm.add_hook(ConnectivityPrefetcher(djvm.gos))``: the hook feeds the
learner, and the engine consults it (as :attr:`HomeBasedLRC.prefetcher`)
at fault time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.heap.heap import GlobalObjectSpace
from repro.heap.objects import HeapObject


@dataclass
class _PendingWatch:
    """One recently faulted object whose field-follows are being watched."""

    obj_id: int
    class_id: int
    #: ref field index -> target object id.
    targets: dict[int, int]
    remaining: int


@dataclass
class FieldHeat:
    """Per-(class, field) follow statistics."""

    follows: int = 0
    faults: int = 0

    @property
    def heat(self) -> float:
        """Observed P(field followed shortly after a fault of its class)."""
        return self.follows / self.faults if self.faults else 0.0


class PathProfile:
    """Learns which reference fields are followed after faults."""

    def __init__(self, *, window: int = 32) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        #: (class_id, field_idx) -> FieldHeat
        self.stats: dict[tuple[int, int], FieldHeat] = defaultdict(FieldHeat)
        #: thread_id -> active watches.
        self._watches: dict[int, list[_PendingWatch]] = defaultdict(list)

    def observe_fault(self, thread_id: int, obj: HeapObject) -> None:
        """A thread just faulted ``obj``: open a watch on its ref fields."""
        targets = {i: ref for i, ref in enumerate(obj.refs)}
        for i in targets:
            self.stats[(obj.jclass.class_id, i)].faults += 1
        if targets:
            self._watches[thread_id].append(
                _PendingWatch(
                    obj_id=obj.obj_id,
                    class_id=obj.jclass.class_id,
                    targets=targets,
                    remaining=self.window,
                )
            )

    def observe_access(self, thread_id: int, obj_id: int) -> None:
        """Record one access: credit any watch whose target it hits and
        age the watches out."""
        watches = self._watches.get(thread_id)
        if not watches:
            return
        survivors = []
        for watch in watches:
            hit = [i for i, target in sorted(watch.targets.items()) if target == obj_id]
            for i in hit:
                self.stats[(watch.class_id, i)].follows += 1
                del watch.targets[i]
            watch.remaining -= 1
            if watch.remaining > 0 and watch.targets:
                survivors.append(watch)
        self._watches[thread_id] = survivors

    def heat(self, class_id: int, field_idx: int) -> float:
        """Learned follow probability of one (class, field)."""
        return self.stats[(class_id, field_idx)].heat

    def hot_fields(self, class_id: int, n_fields: int, threshold: float) -> list[int]:
        """Field indices of a class whose heat meets ``threshold``."""
        return [
            i
            for i in range(n_fields)
            if self.stats[(class_id, i)].heat >= threshold
            and self.stats[(class_id, i)].faults > 0
        ]


class ConnectivityPrefetcher:
    """Fault-time prefetcher: bundle hot-path successors into the reply.

    Implements both halves of the ProtocolHooks surface it needs (access
    observation for learning) and the engine's ``prefetcher`` interface
    (:meth:`bundle_for`, called while servicing a fault).
    """

    def __init__(
        self,
        gos: GlobalObjectSpace,
        *,
        threshold: float = 0.5,
        max_depth: int = 2,
        max_objects: int = 16,
        min_faults: int = 3,
        window: int = 32,
    ) -> None:
        if not 0 < threshold <= 1:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.gos = gos
        self.profile = PathProfile(window=window)
        self.threshold = threshold
        self.max_depth = max_depth
        self.max_objects = max_objects
        #: faults a (class, field) must witness before its heat is trusted.
        self.min_faults = min_faults
        self.bundled_objects = 0
        self.bundled_bytes = 0

    # -- engine interface ----------------------------------------------------

    def bundle_for(self, thread, obj: HeapObject) -> list[HeapObject]:
        """Objects to piggyback on the fault reply for ``obj``.

        Walks learned-hot reference fields breadth-first up to
        ``max_depth``, skipping objects already valid at the thread's
        node; also feeds the fault into the learner.
        """
        self.profile.observe_fault(thread.thread_id, obj)
        bundle: list[HeapObject] = []
        seen = {obj.obj_id}
        frontier = [(obj, 0)]
        while frontier and len(bundle) < self.max_objects:
            current, depth = frontier.pop(0)
            if depth >= self.max_depth:
                continue
            cid = current.jclass.class_id
            for i in self.profile.hot_fields(cid, len(current.refs), self.threshold):
                stat = self.profile.stats[(cid, i)]
                if stat.faults < self.min_faults:
                    continue
                target_id = current.refs[i]
                if target_id in seen:
                    continue
                seen.add(target_id)
                target = self.gos.get(target_id)
                if target.home_node != obj.home_node:
                    # Only the faulted object's home can serve this reply.
                    continue
                bundle.append(target)
                frontier.append((target, depth + 1))
                if len(bundle) >= self.max_objects:
                    break
        self.bundled_objects += len(bundle)
        self.bundled_bytes += sum(o.size_bytes for o in bundle)
        return bundle

    # -- ProtocolHooks interface (learning side) -------------------------------

    def on_interval_open(self, thread) -> None:
        """ProtocolHooks: nothing to do at interval open."""

    def on_access(self, thread, obj, **kwargs) -> None:
        """ProtocolHooks: feed the access into the path learner."""
        self.profile.observe_access(thread.thread_id, obj.obj_id)

    def on_interval_close(self, thread, interval, sync_dst) -> None:
        """ProtocolHooks: nothing to do at interval close."""
