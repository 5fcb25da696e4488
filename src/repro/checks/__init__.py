"""Determinism & protocol sanitizer toolchain.

Three complementary machine-checked guards for the repo's correctness
contract ("bit-identical simulated results"):

* :mod:`repro.checks.simlint` — a static AST lint pass (stdlib ``ast``,
  no third-party deps) with repo-specific rules (``SIM001``…``SIM008``)
  that catch the classic ways determinism silently breaks: wall-clock
  reads, unseeded global RNG, unordered ``set``/dict-view iteration,
  ``id()``-based ordering, missing ``__slots__`` on hot-path classes,
  mutable default arguments, stray ``heapq`` use outside the event
  kernel, and environment reads inside the deterministic core.

* :mod:`repro.checks.sanitizer` — an opt-in runtime protocol checker
  (``djvm.attach(ProtocolSanitizer())``) that observes
  HLRC/interpreter events and asserts the paper's state-machine
  invariants (at-most-once OAL logging, legal copy-state transitions,
  barrier party accounting, event-kernel monotonicity, sticky-set
  membership), raising structured
  :class:`~repro.checks.sanitizer.SanitizerViolation`\\ s with the
  offending event trace.

* :mod:`repro.checks.racedetect` — an opt-in happens-before data race
  detector (``djvm.attach(RaceDetector())``) over the global object space:
  vector clocks with release->acquire, barrier and diff-propagation
  edges, and one check per interval close of its touched and written
  sets against concurrent intervals', online (raise/collect) and
  offline (record + :func:`~repro.checks.racedetect.replay_trace`)
  analysis.

All three are wired into the ``make check`` gate via the
``python -m repro.checks`` CLI (see :mod:`repro.checks.__main__`);
the shared workload harness lives in :mod:`repro.checks.runner`.
"""

from __future__ import annotations

from repro.checks.racedetect import (
    DataRaceError,
    RaceDetector,
    RaceReport,
    replay_trace,
)
from repro.checks.sanitizer import ProtocolSanitizer, SanitizerViolation
from repro.checks.simlint import Finding, check_paths, check_source

__all__ = [
    "DataRaceError",
    "Finding",
    "ProtocolSanitizer",
    "RaceDetector",
    "RaceReport",
    "SanitizerViolation",
    "check_paths",
    "check_source",
    "replay_trace",
]
