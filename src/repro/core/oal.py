"""Object access lists (OALs).

An OAL is the per-thread, per-interval record the access profiler ships
to the master: the ids and (amortized, gap-scaled) sizes of the sampled
objects the thread accessed during one HLRC interval, plus the interval
context.  The HLRC at-most-once property bounds the OAL to one entry per
object per interval regardless of how often the object was accessed.

A batch stores its entries as three parallel int columns — the 8-byte
wire entry is two ints, and a list of ints costs the cyclic collector
nothing per entry (DESIGN, "hot-path data layout").  :class:`OALEntry`
is the record the cold consumers read through :attr:`OALBatch.entries`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

#: wire bytes per OAL entry (object id + logged size).
ENTRY_WIRE_BYTES = 8
#: wire bytes of the interval context header (thread, interval id, PCs).
BATCH_HEADER_BYTES = 16


class OALEntry(NamedTuple):
    """One logged object access, as :attr:`OALBatch.entries` presents it."""

    obj_id: int
    #: logged bytes, already gap-scaled (Horvitz-Thompson weight applied).
    scaled_bytes: int
    class_id: int


@dataclass(slots=True)
class OALBatch:
    """One thread-interval's OAL plus its interval context."""

    thread_id: int
    interval_id: int
    start_pc: int = 0
    end_pc: int = 0
    #: the entries, one column per :class:`OALEntry` field, in log order.
    obj_ids: list[int] = field(default_factory=list)
    scaled_bytes: list[int] = field(default_factory=list)
    class_ids: list[int] = field(default_factory=list)

    def add(self, obj_id: int, scaled_bytes: int, class_id: int) -> None:
        """Append one entry."""
        self.obj_ids.append(obj_id)
        self.scaled_bytes.append(scaled_bytes)
        self.class_ids.append(class_id)

    @property
    def entries(self) -> tuple[OALEntry, ...]:
        """The entries as records, built per call (a tuple: appending
        goes through :meth:`add`)."""
        return tuple(map(OALEntry, self.obj_ids, self.scaled_bytes, self.class_ids))

    @property
    def wire_bytes(self) -> int:
        """Serialized size of the jumbo-message fragment for this batch."""
        return BATCH_HEADER_BYTES + len(self.obj_ids) * ENTRY_WIRE_BYTES

    def __len__(self) -> int:
        return len(self.obj_ids)
