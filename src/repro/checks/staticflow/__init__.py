"""staticflow: whole-program static analysis over the workload IR.

Where the dynamic profilers (TCM correlation, sticky-set footprinting)
and checkers (protocol sanitizer, happens-before race detector) observe
a *running* workload, this package analyzes the pre-decoded thread
programs plus the built object graph **before the first op executes**:

* :mod:`~repro.checks.staticflow.verifier` — IR well-formedness
  (IR001–IR009) and the structural hard gate in front of the
  vectorized replay engine;
* :mod:`~repro.checks.staticflow.cfg` — per-thread segment CFGs aligned
  at barrier episodes, plus a generic fixed-point dataflow solver
  (must-hold locksets);
* :mod:`~repro.checks.staticflow.sharing` — node-private /
  read-mostly-shared / single-writer / ping-pong classification per
  object and allocation site, and the predicted TCM structure;
* :mod:`~repro.checks.staticflow.lockset` — the static may-race set,
  provably a superset of every dynamic race report (the
  ``python -m repro.checks static`` gate's soundness cross-check);
* :mod:`~repro.checks.staticflow.report` — the :func:`analyze` driver
  with text/JSON rendering.
"""

from repro.checks.staticflow.cfg import Segment, ThreadCFG, WorkloadCFG, build_cfg, fixed_point
from repro.checks.staticflow.lockset import MayRace, covers, may_races, uncovered_dynamic
from repro.checks.staticflow.report import StaticReport, analyze, analyze_ir
from repro.checks.staticflow.sharing import (
    ObjectSharing,
    SharingAnalysis,
    SiteSummary,
    analyze_sharing,
)
from repro.checks.staticflow.verifier import (
    IRProblem,
    IRVerificationError,
    gate_program,
    verify_ops,
    verify_structure,
    verify_workload,
)

__all__ = [
    "IRProblem",
    "IRVerificationError",
    "verify_structure",
    "verify_ops",
    "verify_workload",
    "gate_program",
    "Segment",
    "ThreadCFG",
    "WorkloadCFG",
    "build_cfg",
    "fixed_point",
    "ObjectSharing",
    "SiteSummary",
    "SharingAnalysis",
    "analyze_sharing",
    "MayRace",
    "may_races",
    "covers",
    "uncovered_dynamic",
    "StaticReport",
    "analyze",
    "analyze_ir",
]
