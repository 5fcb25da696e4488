"""Per-node object copy state.

JESSICA2 keeps a 2-bit object state in each header, checked by
JIT-inlined software checks on every access.  The profiler overlays a
*false-invalid* state on top: the real state moves to a separate field
and the visible state is forced invalid so the next access traps into
the GOS service routine for logging (Section II.A).  We model exactly
that split: :attr:`CopyRecord.real_state` is the coherence truth and
false-invalidation is a per-thread overlay maintained by the access
profiler (per-thread because OALs are per-thread; the paper's evaluation
runs one thread per node, where the two notions coincide).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RealState(enum.Enum):
    """Coherence state of one node's copy of an object."""

    #: this node is the object's home; the copy is always current.
    HOME = "home"
    #: cached copy, valid since last fetch, no invalidating notice seen.
    VALID = "valid"
    #: cached copy known stale (write notice applied); access must fault.
    INVALID = "invalid"


@dataclass(slots=True)
class CopyRecord:
    """One node's copy of a shared object."""

    obj_id: int
    real_state: RealState
    #: home version the cached data corresponds to (meaningless for HOME).
    fetched_version: int = 0
    #: dirty byte count accumulated by local writes this interval
    #: (cache copies only; flushed as a diff at release/barrier).
    dirty_bytes: int = 0
    #: whether a twin was already created this interval.
    has_twin: bool = False
    #: thread ids that wrote this copy in the current interval (for
    #: write-notice attribution when the interval closes); None until
    #: the first write, so a copy that is only read never owns a set.
    writers: set[int] | None = None

    @property
    def is_home(self) -> bool:
        """True when this copy is the object's home copy."""
        return self.real_state is RealState.HOME

    def invalidate(self) -> None:
        """Apply a write notice: only cache copies can become invalid."""
        if self.real_state is RealState.VALID:
            self.real_state = RealState.INVALID

    def clear_interval_state(self) -> None:
        """Reset per-interval write bookkeeping (after diff flush)."""
        self.dirty_bytes = 0
        self.has_twin = False
        self.writers = None


class _SharedHomeCopy(CopyRecord):
    """A read-only home-copy :class:`CopyRecord`: writing a field raises."""

    __slots__ = ()

    def __init__(self) -> None:
        template = CopyRecord(-1, RealState.HOME)
        for name in CopyRecord.__slots__:
            object.__setattr__(self, name, getattr(template, name))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            "HOME_COPY is shared by every materialized home copy: replace it, do not write it"
        )


#: the record of every home copy materialized on first access, shared by
#: all of them (its ``obj_id`` is -1): a home copy is always current and
#: never twins, diffs or goes stale, so it carries no per-object state.
#: A re-homing that turns one into a cache copy puts a new record in its
#: place; a copy that becomes a home copy by re-homing keeps its own.
HOME_COPY: CopyRecord = _SharedHomeCopy()
