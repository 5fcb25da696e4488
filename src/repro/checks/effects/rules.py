"""The EFF rule families over the inferred summaries.

EFF1xx — observer purity
    Everything reachable from an override of a ``ProtocolObserver``
    method (the one vocabulary the engine emits into) and from
    registered telemetry collectors must stay at or below
    ``reads-sim-state``.  Writes rooted at the observer itself are its
    own state and always allowed; writes into whitelisted
    observer-owned classes/attributes pass the ownership check; wall
    clock use that only feeds the sanctioned ``self_ns`` self-overhead
    meter is exempt.
    * EFF101 — host effect reachable from an observer entry point
    * EFF102 — observer writes engine-owned state

EFF2xx — clock separation
    Host time must never flow into simulated time.
    * EFF201 — host-time value used as an event-schedule time
    * EFF202 — host-time value advances or is stored into a sim clock

Suppression: a trailing ``# effects: disable=EFF102`` (comma list, or
``all``) on the offending line. Suppressed findings are kept on the
report (they document sanctioned seams) but do not gate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.checks.effects.codebase import Codebase
from repro.checks.effects.infer import Analysis, EffectsConfig
from repro.checks.effects.lattice import EFFECT_NAMES, FunctionSummary

__all__ = ["Finding", "EffectsReport", "run_rules", "RULES"]

RULES = {
    "EFF101": "host effect reachable from an observer entry point",
    "EFF102": "observer writes engine-owned state",
    "EFF201": "host-time value used as an event-schedule time",
    "EFF202": "host-time value flows into a simulated clock",
}

_DISABLE_RE = re.compile(r"#\s*effects:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation, anchored at the offending source line."""

    path: str
    line: int
    code: str
    message: str
    #: rule-family root the fact is reachable from ("" for EFF2xx).
    root: str = ""

    def render(self) -> str:
        via = f" [reachable from {self.root}]" if self.root else ""
        return f"{self.path}:{self.line}: {self.code} {self.message}{via}"


@dataclass(slots=True)
class EffectsReport:
    """Analysis output: findings + the machine-readable summary feed."""

    findings: list[Finding]
    suppressed: list[Finding]
    analysis: Analysis
    #: observer entry-point qualname -> how it was discovered.
    observer_roots: dict[str, str] = field(default_factory=dict)

    @property
    def summaries(self) -> dict[str, FunctionSummary]:
        return self.analysis.summaries

    def to_json(self) -> dict:
        from repro.checks.effects.summary import build_doc

        return build_doc(self)


def _disabled(cb: Codebase, path_index: dict[str, list[str]], f: Finding) -> bool:
    lines = path_index.get(f.path)
    if lines is None or not (1 <= f.line <= len(lines)):
        return False
    m = _DISABLE_RE.search(lines[f.line - 1])
    if not m:
        return False
    codes = {c.strip() for c in m.group(1).split(",")}
    return f.code in codes or "all" in codes


def run_rules(analysis: Analysis) -> EffectsReport:
    """Evaluate every rule family; split findings by suppression."""
    cb = analysis.codebase
    cfg = analysis.config
    summaries = analysis.summaries
    raw: list[Finding] = []

    # ------------------------------------------------------------------
    # EFF1xx: observer purity
    # ------------------------------------------------------------------
    observer_roots: dict[str, str] = {}
    for base in cb.classes_by_name.get(cfg.observer_base, []):
        vocabulary = sorted(m for m in cb.classes[base].methods if not m.startswith("__"))
        for cls in sorted(cb.classes):
            if cls == base or base not in cb.mro(cls):
                continue
            for method in vocabulary:
                fi = cb.resolve_method(cls, method)
                if fi is not None and fi.cls != base:
                    observer_roots.setdefault(fi.qualname, f"override of {method}")
    for qual in analysis.collector_regs:
        observer_roots.setdefault(qual, "telemetry collector")

    owned_simple = set(cfg.owned_classes)
    for root, how in sorted(observer_roots.items()):
        s = summaries.get(root)
        if s is None:
            continue
        for h in sorted(s.trans_host, key=lambda h: (h.path, h.line)):
            raw.append(
                Finding(
                    h.path, h.line, "EFF101",
                    f"host effect ({h.kind}: {h.detail}) in {h.origin}, "
                    f"reachable from observer {how}",
                    root=root,
                )
            )
        for w in sorted(s.trans_writes, key=lambda w: (w.path, w.line)):
            if w.root == "self":
                continue
            if w.cls is not None and w.cls.rsplit(".", 1)[-1] in owned_simple:
                continue
            if w.attr in cfg.owned_attrs:
                continue
            raw.append(
                Finding(
                    w.path, w.line, "EFF102",
                    f"{w.origin} writes engine state (.{w.attr} via {w.root}"
                    + (f", {w.cls.rsplit('.', 1)[-1]}" if w.cls else "")
                    + f"), reachable from observer {how}",
                    root=root,
                )
            )

    # ------------------------------------------------------------------
    # EFF2xx: clock separation (every function, not just closures)
    # ------------------------------------------------------------------
    for q in sorted(summaries):
        for fl in summaries[q].flows:
            code = "EFF201" if fl.sink == "schedule" else "EFF202"
            raw.append(Finding(fl.path, fl.line, code, f"{fl.detail} in {fl.origin}"))

    # ------------------------------------------------------------------
    # suppression split
    # ------------------------------------------------------------------
    path_index = {m.path: m.source_lines for m in cb.modules.values()}
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for f in sorted(set(raw), key=lambda f: (f.path, f.line, f.code, f.message)):
        (suppressed if _disabled(cb, path_index, f) else findings).append(f)

    return EffectsReport(
        findings=findings,
        suppressed=suppressed,
        analysis=analysis,
        observer_roots=observer_roots,
    )


def render_summary_line(report: EffectsReport) -> str:
    """The one-line gate verdict."""
    summaries = report.summaries
    by_level: dict[str, int] = {}
    for s in summaries.values():
        name = EFFECT_NAMES[s.effect()]
        by_level[name] = by_level.get(name, 0) + 1
    levels = ", ".join(f"{by_level.get(n, 0)} {n}" for n in EFFECT_NAMES.values())
    return (
        f"effects: {len(summaries)} functions ({levels}); "
        f"{len(report.observer_roots)} observer roots, "
        f"{len(report.suppressed)} suppressed finding(s)"
    )
