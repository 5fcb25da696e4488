"""Interprocedural effect & purity analysis over the simulator source.

Where :mod:`repro.checks.staticflow` analyzes the *workload IR*, this
package analyzes the simulator's **own Python source**: it builds a
class-hierarchy-aware call graph over ``src/repro/`` with stdlib
:mod:`ast`, runs a fixed-point effect inference assigning every
function a lattice value (``pure`` -> ``reads-sim-state`` ->
``writes-sim-state`` -> ``host-effect``), and statically certifies the
two properties the repo otherwise only proves dynamically through
byte-identity checksums:

* **EFF1xx observer purity** — the race detector, protocol sanitizer,
  span tracer and telemetry collectors never perturb simulated state;
* **EFF2xx clock separation** — host time never flows into simulated
  time (event scheduling, clock advances).

Run it as ``python -m repro.checks effects`` (exit code 6 on
unsuppressed findings); ``--json PATH`` dumps the full machine-readable
summary on demand.
"""

from __future__ import annotations

from repro.checks.effects.lattice import EFFECT_NAMES, Effect

__all__ = [
    "Effect",
    "EFFECT_NAMES",
    "analyze_package",
    "analyze_sources",
]


def analyze_package(src_root, package: str = "repro"):
    """Parse + analyze every module under ``src_root/package`` and run
    the rule families.  Returns an
    :class:`~repro.checks.effects.rules.EffectsReport`."""
    from repro.checks.effects.codebase import Codebase
    from repro.checks.effects.infer import analyze
    from repro.checks.effects.rules import run_rules

    return run_rules(analyze(Codebase.from_package(src_root, package)))


def analyze_sources(sources: dict, config=None):
    """Analyze in-memory ``{module_name: source}`` (fixtures/tests)."""
    from repro.checks.effects.codebase import Codebase
    from repro.checks.effects.infer import analyze
    from repro.checks.effects.rules import run_rules

    return run_rules(analyze(Codebase.from_sources(sources), config))
