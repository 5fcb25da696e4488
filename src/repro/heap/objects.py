"""Heap objects.

Each object header carries what the paper's scheme needs:

* the class (per-class sampling gap lives on :class:`~repro.heap.jclass.JClass`),
* a per-class **sequence number** (half-word in the paper) — for arrays
  this is the first element's number and elements are numbered
  consecutively (Section II.B.3, Fig. 3b),
* the **home node** of the HLRC protocol (its one source; the home's
  version is the protocol's, a column of
  :class:`~repro.dsm.hlrc.HomeBasedLRC`),
* outgoing **reference edges**, which form the object graph that
  sticky-set resolution traces from stack-invariant entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.heap.jclass import JClass


@dataclass(slots=True)
class HeapObject:
    """One shared object (or array) in the global object space."""

    obj_id: int
    jclass: JClass
    seq: int
    home_node: int
    #: array length (0 for scalar objects).
    length: int = 0
    #: ids of objects this object references (graph edges).
    refs: list[int] = field(default_factory=list)
    #: optional allocation-site label (workload-provided; the static
    #: sharing analysis aggregates per site, falling back to the class
    #: name when unset).
    site: str | None = field(default=None, repr=False)

    @property
    def is_array(self) -> bool:
        """True for array instances."""
        return self.jclass.is_array

    @property
    def size_bytes(self) -> int:
        """Total payload size (what an object fault must transfer)."""
        if self.is_array:
            return self.jclass.instance_size + self.length * self.jclass.element_size
        return self.jclass.instance_size

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
        self.refs.append(target_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = f"[{self.length}]" if self.is_array else ""
        return (
            f"HeapObject(#{self.obj_id} {self.jclass.name}{kind} "
            f"seq={self.seq} home={self.home_node} {self.size_bytes}B)"
        )
