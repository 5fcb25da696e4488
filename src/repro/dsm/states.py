"""Per-node object copy state, as state bits.

JESSICA2 keeps a 2-bit object state in each header, checked by
JIT-inlined software checks on every access.  The profiler overlays a
*false-invalid* state on top: the real state moves to a separate field
and the visible state is forced invalid so the next access traps into
the GOS service routine for logging (Section II.A).  We model exactly
that split: the *real* state is the coherence truth, held per node as a
byte column indexed by object id (:class:`repro.heap.heap.LocalHeap`),
and false-invalidation is a per-thread overlay maintained by the access
profiler (per-thread because OALs are per-thread; the paper's
evaluation runs one thread per node, where the two notions coincide).

A state byte is one of :data:`ABSENT`, :data:`INVALID`, :data:`VALID`
or :data:`HOME`, ordered so that one compare splits them: a copy is
current (an access needs no coherence work) iff its byte is at least
:data:`VALID`.  :class:`RealState` names the three present states for
readers; :meth:`repro.dsm.hlrc.HomeBasedLRC.copy`, the one accessor,
returns a :class:`CopyState` snapshot of one copy.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

#: state bytes: no copy on the node; a stale cache copy (a write notice
#: was applied); a cache copy current since its fetch; the home copy,
#: always current.  The column starts all :data:`ABSENT`.
ABSENT, INVALID, VALID, HOME = 0, 1, 2, 3


class RealState(enum.Enum):
    """Coherence state of one node's copy of an object."""

    #: this node is the object's home; the copy is always current.
    HOME = "home"
    #: cached copy, valid since last fetch, no invalidating notice seen.
    VALID = "valid"
    #: cached copy known stale (write notice applied); access must fault.
    INVALID = "invalid"


#: :class:`RealState` by state byte (None for :data:`ABSENT`).
STATE_OF: tuple[RealState | None, ...] = (None, RealState.INVALID, RealState.VALID, RealState.HOME)


class CopyState(NamedTuple):
    """One node's copy of a shared object, read off the node's columns
    (:meth:`repro.dsm.hlrc.HomeBasedLRC.copy`): a snapshot, not a
    handle — writing the copy goes through the columns."""

    real_state: RealState
    #: home version the cached data corresponds to (for a home copy: 0,
    #: or the version it held when a re-homing made it the home copy).
    fetched_version: int
    #: whether a twin was created this interval (a written cache copy).
    has_twin: bool
    #: dirty bytes accumulated by local writes this interval.
    dirty_bytes: int
    #: thread ids that wrote the copy this interval (None: unwritten).
    writers: frozenset[int] | None

    @property
    def is_home(self) -> bool:
        """True when this copy is the object's home copy."""
        return self.real_state is RealState.HOME
