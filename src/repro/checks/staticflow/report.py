"""Staticflow driver: run the whole pipeline on a workload and render
text/JSON reports.

:func:`analyze` is the one-call entry point: build the workload on a
fresh DJVM (no run — this is the point), export the IR, verify it, and
run the CFG, sharing and may-race analyses.  The
:class:`StaticReport` it returns is what the ``python -m repro.checks
static`` CLI prints/serializes and what the soundness tests compare
against the dynamic detector.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.checks.staticflow.cfg import WorkloadCFG, build_cfg
from repro.checks.staticflow.lockset import MayRace, may_races
from repro.checks.staticflow.sharing import (
    CLASS_ORDER,
    SharingAnalysis,
    analyze_sharing,
)
from repro.checks.staticflow.verifier import IRProblem, verify_workload

__all__ = ["StaticReport", "analyze", "analyze_ir"]


@dataclass(slots=True)
class StaticReport:
    """The full static-analysis result for one workload."""

    name: str
    ir: object
    problems: list[IRProblem]
    #: None when verification failed (no structure to analyze).
    cfg: WorkloadCFG | None
    sharing: SharingAnalysis | None
    races: list[MayRace]

    @property
    def verified(self) -> bool:
        """True when the IR passed full verification."""
        return not self.problems

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [f"# static analysis: {self.name}"]
        lines.append(
            f"threads {self.ir.n_threads}, nodes {self.ir.n_nodes}, "
            f"objects {len(self.ir.objects)}, "
            f"ops {sum(p.n_ops for p in self.ir.programs.values())}"
        )
        if self.problems:
            lines.append(f"VERIFIER: {len(self.problems)} problem(s)")
            lines.extend(f"  {p.render()}" for p in self.problems)
            return "\n".join(lines)
        lines.append(f"verifier: clean, phases {self.cfg.n_phases}")
        counts = self.sharing.counts()
        lines.append(
            "sharing: "
            + ", ".join(f"{counts[c]} {c}" for c in CLASS_ORDER if counts[c])
        )
        for site in sorted(self.sharing.sites):
            summary = self.sharing.sites[site]
            lines.append(
                f"  site {site:<24} {summary.n_objects:>5} obj  "
                f"{summary.classification:<18} shared {summary.shared_bytes} B"
            )
        lines.append(f"may-race set: {len(self.races)} pair(s)")
        lines.extend(f"  {r.render()}" for r in self.races)
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON-serializable form of the report."""
        doc: dict = {
            "name": self.name,
            "n_threads": self.ir.n_threads,
            "n_nodes": self.ir.n_nodes,
            "n_objects": len(self.ir.objects),
            "problems": [
                {
                    "code": p.code,
                    "thread_id": p.thread_id,
                    "pc": p.pc,
                    "message": p.message,
                }
                for p in self.problems
            ],
        }
        if not self.verified:
            return doc
        doc["n_phases"] = self.cfg.n_phases
        doc["sharing"] = {
            "counts": self.sharing.counts(),
            "sites": {
                site: {
                    "n_objects": s.n_objects,
                    "classification": s.classification,
                    "counts": s.counts,
                    "shared_bytes": s.shared_bytes,
                    "classes": list(s.class_names),
                }
                for site, s in sorted(self.sharing.sites.items())
            },
        }
        doc["may_races"] = [
            {
                "obj_id": r.obj_id,
                "class_name": r.class_name,
                "site": r.site,
                "threads": [r.tid_a, r.tid_b],
                "kind": r.kind,
                "phase": r.phase,
                "evidence": r.evidence,
            }
            for r in self.races
        ]
        return doc


def analyze_ir(ir, name: str = "workload") -> StaticReport:
    """Run the static pipeline over an already-exported IR."""
    problems = verify_workload(ir)
    if problems:
        return StaticReport(
            name=name,
            ir=ir,
            problems=problems,
            cfg=None,
            sharing=None,
            races=[],
        )
    cfg = build_cfg(ir)
    sharing = analyze_sharing(ir, cfg)
    return StaticReport(
        name=name,
        ir=ir,
        problems=[],
        cfg=cfg,
        sharing=sharing,
        races=may_races(ir, cfg),
    )


def analyze(
    workload,
    *,
    n_nodes: int,
    placement: str | list[int] = "round_robin",
    name: str | None = None,
) -> StaticReport:
    """Build ``workload`` on a fresh (never-run) DJVM and analyze it.

    Classification depends on the thread->node placement, so pass the
    same ``placement`` the dynamic run you want to compare against
    uses.
    """
    from repro.runtime.djvm import DJVM

    djvm = DJVM(n_nodes=n_nodes)
    workload.build(djvm, placement=placement)
    ir = djvm.export_ir(workload.programs())
    if name is None:
        name = type(workload).__name__
    return analyze_ir(ir, name=name)
