"""Heap objects.

Each object header carries what the paper's scheme needs:

* the class (per-class sampling gap lives on :class:`~repro.heap.jclass.JClass`),
* a per-class **sequence number** (half-word in the paper) — for arrays
  this is the first element's number and elements are numbered
  consecutively (Section II.B.3, Fig. 3b),
* the **home node** of the HLRC protocol (the home's version is the
  protocol's, a column of :class:`~repro.dsm.hlrc.HomeBasedLRC`),
* outgoing **reference edges**, which form the object graph that
  sticky-set resolution traces from stack-invariant entry points.

Those fields are columns of the :class:`~repro.heap.heap.GlobalObjectSpace`
(fixed-width header fields, as in the paper); a :class:`HeapObject` is a
view of one row, made only where a caller asks for an object.
"""

from __future__ import annotations


class HeapObject:
    """One shared object (or array) of a global object space: a view of
    its row of the space's columns (``space`` plus ``obj_id``).  Two
    views of the same row are equal."""

    __slots__ = ("space", "obj_id")

    def __init__(self, space, obj_id: int) -> None:
        self.space = space
        self.obj_id = obj_id

    @property
    def jclass(self):
        """The object's :class:`~repro.heap.jclass.JClass`."""
        space = self.space
        return space.registry.by_id(space.cls[self.obj_id])

    @property
    def seq(self) -> int:
        """Per-class sequence number (an array's first element's)."""
        return self.space.seq[self.obj_id]

    @property
    def home_node(self) -> int:
        """The HLRC home node (the space's ``home`` column, its one source)."""
        return self.space.home[self.obj_id]

    @property
    def length(self) -> int:
        """Array length (0 for scalar objects)."""
        return self.space.length[self.obj_id]

    @property
    def refs(self) -> list[int]:
        """Ids of objects this object references (graph edges), as a new list."""
        return self.space.refs_of(self.obj_id)

    @property
    def site(self) -> str | None:
        """Optional allocation-site label (workload-provided; the static
        sharing analysis aggregates per site, falling back to the class
        name when unset)."""
        space = self.space
        return space.sites[space.site[self.obj_id]]

    @property
    def is_array(self) -> bool:
        """True for array instances."""
        return self.jclass.is_array

    @property
    def size_bytes(self) -> int:
        """Total payload size (what an object fault must transfer)."""
        return self.space.size_bytes(self.obj_id)

    def element_seq(self, index: int) -> int:
        """Sequence number of array element ``index`` (consecutive from
        the stored first-element number)."""
        if not self.is_array:
            raise TypeError(f"object {self.obj_id} of class {self.jclass.name} is not an array")
        if not 0 <= index < self.length:
            raise IndexError(f"index {index} out of range for length {self.length}")
        return self.seq + index

    def add_ref(self, target_id: int) -> None:
        """Add a reference edge (duplicates allowed; the graph is a multigraph
        in principle, but tracing deduplicates)."""
        self.space.add_ref(self.obj_id, target_id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeapObject):
            return NotImplemented
        return self.space is other.space and self.obj_id == other.obj_id

    def __hash__(self) -> int:
        return hash(self.obj_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = f"[{self.length}]" if self.is_array else ""
        return (
            f"HeapObject(#{self.obj_id} {self.jclass.name}{kind} "
            f"seq={self.seq} home={self.home_node} {self.size_bytes}B)"
        )
