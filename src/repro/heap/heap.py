"""Global object space (GOS) registry and per-node local heaps.

The :class:`GlobalObjectSpace` is the allocation authority: it assigns
object ids, per-class sequence numbers and home nodes (home = creating
node, as in JESSICA2).  :class:`LocalHeap` holds each node's *copies* —
home copies for objects homed there, cache copies for remotely homed
objects that local threads have faulted in.  The coherence state machine
on those copies lives in :mod:`repro.dsm.states`.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from typing import Iterable, Iterator

import numpy as np

from repro.heap.jclass import ClassRegistry, JClass
from repro.heap.objects import HeapObject

#: allocation frames skipped when resolving a site label's origin: the
#: GOS itself and the DJVM facade that forwards to it.
_ALLOC_WRAPPERS = ("repro/heap/heap.py", "repro/runtime/djvm.py")


def _caller_origin() -> str:
    """``file:line`` of the workload frame that requested an allocation.

    Walks past the allocation wrappers and renders the path from the
    package root down (host-prefix-free, so origins are stable across
    checkouts).  Host-side introspection only — never touches simulated
    state."""
    frame = sys._getframe(2)  # skip _caller_origin and allocate itself
    while frame is not None:
        filename = frame.f_code.co_filename.replace("\\", "/")
        if not filename.endswith(_ALLOC_WRAPPERS):
            short = filename.rsplit("/src/", 1)[-1]
            return f"{short}:{frame.f_lineno}"
        frame = frame.f_back
    return ""


class GlobalObjectSpace:
    """Cluster-wide object registry (ids, homes, sequence numbers)."""

    def __init__(self, registry: ClassRegistry | None = None) -> None:
        self.registry = registry if registry is not None else ClassRegistry()
        self._objects: list[HeapObject] = []
        self._by_class: defaultdict[int, list[int]] = defaultdict(list)
        #: site label -> ``file:line`` of the first allocation carrying
        #: it (the object-centric report's source attribution).
        self.site_origins: dict[str, str] = {}
        #: the length of every per-object column kept over the space,
        #: grown ahead of allocation (see :meth:`add_columns`).
        self.capacity = 0
        self._column_owners: list = []

    def add_columns(self, owner) -> None:
        """Keep ``owner``'s per-object columns as long as the space's
        capacity: ``owner.resize(capacity)`` is called now and whenever
        an allocation outgrows it (by a quarter and then some, so
        resizes are rare and a column's slack stays small)."""
        self._column_owners.append(owner)
        owner.resize(self.capacity)

    def _grow(self, needed: int) -> None:
        self.capacity = max(needed, self.capacity + self.capacity // 4 + 1024)
        for owner in self._column_owners:
            owner.resize(self.capacity)

    def allocate(
        self,
        jclass: JClass | str,
        home_node: int,
        *,
        length: int = 0,
        refs: Iterable[int] = (),
        site: str | None = None,
    ) -> HeapObject:
        """Allocate a new shared object homed at ``home_node``.

        Arrays consume ``length`` consecutive per-class sequence numbers
        (one per element); scalar objects consume one.  ``site`` is an
        optional allocation-site label for per-site static/profiling
        reports (defaults to the class name downstream).
        """
        if isinstance(jclass, str):
            jclass = self.registry.get(jclass)
        if site is not None and site not in self.site_origins:
            # Capture once per distinct label — cheap, and every later
            # allocation at the label shares the first caller's line.
            self.site_origins[site] = _caller_origin()
        if jclass.is_array:
            if length < 1:
                raise ValueError(f"array of class {jclass.name} needs length >= 1, got {length}")
            n_seqs = length
        elif length:
            raise ValueError(f"scalar class {jclass.name} cannot take a length")
        else:
            n_seqs = 1
        seq = jclass.issue_seq(n_seqs)
        objects = self._objects
        obj_id = len(objects)
        obj = HeapObject(obj_id, jclass, seq, home_node, length, list(refs), site)
        objects.append(obj)
        if obj_id >= self.capacity:
            self._grow(obj_id + 1)
        self._by_class[jclass.class_id].append(obj_id)
        return obj

    def get(self, obj_id: int) -> HeapObject:
        """Look up by key; returns None / raises per container semantics."""
        return self._objects[obj_id]

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[HeapObject]:
        return iter(self._objects)

    def objects_of_class(self, jclass: JClass | str) -> list[HeapObject]:
        """All objects of one class, in allocation order."""
        if isinstance(jclass, str):
            jclass = self.registry.get(jclass)
        return [self._objects[i] for i in self._by_class.get(jclass.class_id, [])]

    def total_bytes(self) -> int:
        """Total payload bytes in the global object space."""
        return sum(o.size_bytes for o in self._objects)


class LocalHeap:
    """One node's copies of the global object space, as columns indexed
    by object id, as JESSICA2's local heaps hold home and cache copies
    alike.

    ``state`` (a ``bytearray``) holds each object's state byte and
    ``fetched`` (an ``array('q')``) the home version its cached data
    corresponds to; ``state_np`` and ``fetched_np`` are numpy views of
    the same memory.  So there is one representation with two read
    paths: the protocol's per-op path indexes the ``bytearray`` or
    ``array`` and gets a plain ``int``, its batch paths gather and
    compare through the views at C speed.  What the bytes mean is the
    DSM layer's (:mod:`repro.dsm.states`).  Twin state is
    sparse: ``twins`` maps each cache copy written this interval to
    ``[dirty bytes, writer thread ids]``.

    The columns are as long as the space's capacity
    (:meth:`GlobalObjectSpace.add_columns`) and replaced, not resized,
    when it grows: read them off the heap, never across an allocation.
    Copies are never dropped.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.state = bytearray()
        self.fetched = array("q")
        #: cache copy id -> ``[dirty bytes, writer thread ids]``, for the
        #: copies written this interval (the entry is the twin).
        self.twins: dict[int, list] = {}
        self.resize(0)

    def resize(self, capacity: int) -> None:
        """Lengthen every column to ``capacity`` (new ids absent)."""
        grow = capacity - len(self.state)
        self.state = self.state + bytes(grow)
        self.fetched = array("q", self.fetched)
        self.fetched.frombytes(bytes(8 * grow))
        self.state_np = np.frombuffer(self.state, dtype=np.uint8)
        self.fetched_np = np.frombuffer(self.fetched, dtype=np.int64)

    def __contains__(self, obj_id: int) -> bool:
        return self.state[obj_id] != 0

    def __len__(self) -> int:
        """Copies held: ids whose state byte is not absent (0)."""
        return int(np.count_nonzero(self.state_np))

