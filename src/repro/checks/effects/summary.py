"""The machine-readable effects summary document.

Dumped on demand by ``python -m repro.checks effects --json PATH``;
nothing is committed or loaded at run time.  The one in-process
consumer is :mod:`repro.checks.simlint`, which sharpens SIM009 from
syntactic to semantic using :func:`counter_writes` over a live
analysis run.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["build_doc", "counter_writes"]

SCHEMA_VERSION = 1


def _rel(path: str) -> str:
    """``path`` relative to the repository layout's ``src`` ancestor
    when there is one, so the document is position-independent."""
    parts = Path(path).parts
    if "src" in parts:
        i = len(parts) - 1 - list(reversed(parts)).index("src")
        return "/".join(parts[i:])
    return path


def counter_writes(report) -> dict[str, list]:
    """path -> [[line, qualname], ...] of alias-tracked counter
    mutations outside the metrics registry (the semantic SIM009 feed)."""
    analysis = report.analysis
    module_of = {m.path: m.name for m in analysis.codebase.modules.values()}
    out: dict[str, list] = {}
    for q in sorted(analysis.summaries):
        for path, line in analysis.summaries[q].counter_writes:
            mod = module_of.get(path)
            if mod is not None and ".obs" in f".{mod}":
                continue  # the registry's own mutations are sanctioned
            out.setdefault(_rel(path), []).append([line, q])
    return out


def build_doc(report) -> dict:
    """Serialize an :class:`~repro.checks.effects.rules.EffectsReport`."""
    from repro.checks.effects.lattice import EFFECT_NAMES

    summaries = report.analysis.summaries
    functions = {}
    for q in sorted(summaries):
        s = summaries[q]
        functions[q] = {
            "effect": EFFECT_NAMES[s.effect()],
            "writes": s.writes_kind(),
            "host_kinds": sorted({h.kind for h in s.trans_host}),
            "self_accounting": s.self_accounting,
            "path": _rel(s.path),
            "line": s.line,
        }

    return {
        "version": SCHEMA_VERSION,
        "generated_by": "python -m repro.checks effects --json",
        "rules": {
            "EFF1xx": "observer purity",
            "EFF2xx": "clock separation",
        },
        "functions": functions,
        "observers": {
            "roots": {q: how for q, how in sorted(report.observer_roots.items())},
        },
        "counter_writes": counter_writes(report),
        "suppressed": [
            [_rel(f.path), f.line, f.code] for f in report.suppressed
        ],
    }
