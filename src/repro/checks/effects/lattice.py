"""The effect lattice and per-function summaries.

Every function in ``src/repro/`` is assigned a value from a four-point
lattice ordered by how much of the outside world the function can
observe or perturb::

    pure  <  reads-sim-state  <  writes-sim-state  <  host-effect

* ``pure`` — no reads or writes of state reachable from the caller, no
  host interaction; the result depends only on the arguments' values.
* ``reads-sim-state`` — reads attributes/elements of objects owned by
  the simulation (``self``, parameters, module globals) but never
  mutates them.
* ``writes-sim-state`` — mutates simulation-owned state.  Summaries
  keep the *write set* (root + attribute + class when known), not just
  the bit, because the observer-purity rule distinguishes writes to an
  observer's own state (allowed) from writes to engine state (EFF102).
* ``host-effect`` — touches the host: wall clock, ambient RNG,
  filesystem/console I/O, environment, process machinery.

Joins are ``max``; the fixed-point propagation in
:mod:`repro.checks.effects.infer` is monotone over this order, so it
terminates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "Effect",
    "EFFECT_NAMES",
    "WriteRec",
    "HostRec",
    "Eff2Flow",
    "CallSite",
    "FunctionSummary",
]


class Effect(enum.IntEnum):
    """One point of the effect lattice (join = ``max``)."""

    PURE = 0
    READS_SIM = 1
    WRITES_SIM = 2
    HOST = 3


EFFECT_NAMES = {
    Effect.PURE: "pure",
    Effect.READS_SIM: "reads-sim-state",
    Effect.WRITES_SIM: "writes-sim-state",
    Effect.HOST: "host-effect",
}

#: root kinds a write (or any rooted value) can have.  ``fresh`` roots
#: (locally constructed objects) are dropped before they reach a
#: summary: mutating an object the function itself created is not an
#: observable effect.
ROOT_SELF = "self"
ROOT_PARAM = "param"
ROOT_GLOBAL = "global"
ROOT_FRESH = "fresh"


@dataclass(frozen=True, slots=True)
class WriteRec:
    """One mutation of caller-visible state, root-relative.

    ``root`` is ``"self"``, ``"param:<name>"`` or ``"global"`` — the
    *syntactic origin* of the reference chain that was written through.
    Interprocedural propagation rewrites the root at each call site
    (callee ``self`` becomes the receiver's root, callee parameters
    become the argument roots), so at an observer entry point the root
    answers the ownership question directly: ``self`` is
    observer-owned, anything else belongs to the engine.
    """

    root: str
    #: last attribute (or ``[]`` for a bare subscript store) written.
    attr: str
    #: class of the written object when statically known (annotation or
    #: constructor), else None.
    cls: str | None
    #: function the write syntactically occurs in (reporting).
    origin: str
    path: str
    line: int


@dataclass(frozen=True, slots=True)
class HostRec:
    """One host interaction: wall clock, RNG, I/O, env, process."""

    kind: str  # "wallclock" | "rng" | "io" | "env" | "process"
    detail: str
    origin: str
    path: str
    line: int


@dataclass(frozen=True, slots=True)
class Eff2Flow:
    """A host-time value reaching a simulated-time sink (EFF2xx)."""

    sink: str  # "schedule" | "advance" | "clock-field"
    detail: str
    origin: str
    path: str
    line: int


@dataclass(slots=True)
class CallSite:
    """One resolved call inside a function body."""

    #: resolved callee qualnames (may be a name-based join).
    targets: tuple[str, ...]
    #: root of the receiver for method calls (None for plain calls);
    #: a ``(kind, detail)`` pair.
    receiver: tuple | None
    #: callee parameter name -> argument root pair (positional args
    #: matched against each target's signature at propagation time are
    #: pre-resolved per target in :mod:`infer`).
    arg_roots: dict
    line: int


#: per-function cap on propagated write/host records.  The cap bounds
#: the fixed point; overflow only costs report completeness (the
#: *level* is exact — flags saturate before the list does).
MAX_RECORDS = 64


@dataclass(slots=True)
class FunctionSummary:
    """Local + transitive effect facts for one function."""

    qualname: str
    path: str
    line: int
    is_method: bool
    # -- local facts (one AST pass) --
    reads: bool = False
    writes: list[WriteRec] = field(default_factory=list)
    host: list[HostRec] = field(default_factory=list)
    flows: list[Eff2Flow] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    returns_host_time: bool = False
    #: all host use is wall-clock reads folded into self-owned
    #: ``self_ns`` accounting (the sanctioned observer overhead meter).
    self_accounting: bool = False
    #: counter-table writes (chain through a ``counters`` attr) for the
    #: semantic SIM009 feed: (path, line).
    counter_writes: list = field(default_factory=list)
    # -- transitive facts (fixed point over the call graph) --
    trans_writes: set = field(default_factory=set)  # set[WriteRec]
    trans_host: set = field(default_factory=set)  # set[HostRec]
    trans_reads: bool = False

    def effect(self) -> Effect:
        """The function's transitive lattice value."""
        if self.trans_host:
            return Effect.HOST
        if self.trans_writes:
            return Effect.WRITES_SIM
        if self.trans_reads:
            return Effect.READS_SIM
        return Effect.PURE

    def writes_kind(self) -> str:
        """``"none"``, ``"self"`` or ``"other"`` over the transitive
        write set (``other`` wins)."""
        kinds = {w.root == ROOT_SELF for w in self.trans_writes}
        if not kinds:
            return "none"
        return "self" if kinds == {True} else "other"
