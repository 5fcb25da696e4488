"""Ranked object-centric inefficiency report.

Folds an :class:`~repro.obs.objprof.ObjectProfiler`'s per-object
lifetime records into per-allocation-site statistics, runs the pattern
detectors (:mod:`repro.obs.patterns`), aggregates findings per
(pattern, site) and ranks them by estimated wasted simulated time —
the profiler-as-work-list output.

Attribution axes:

* **allocation site** — the workload's ``site=`` label, resolved to a
  ``file:line`` through the origins the GOS captured at registration
  (:attr:`~repro.heap.heap.GlobalObjectSpace.site_origins`).
* **wasted ns** — each finding priced by
  :func:`repro.core.costmodel.object_fault_ns` on exact protocol event
  counts (faults/diffs/invalidations are never sampled).
* **HT access mass** — per-site access bytes estimated from the sampled
  OAL stream; ``scaled_bytes`` carries the active backend's
  Horvitz–Thompson weight (gap scaling), so the estimate is
  sampling-rate-corrected without a re-run at full sampling.

Everything here runs on finished runs — report construction is outside
the observer hooks and free to allocate, sort and price at will.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.patterns import detect_object_patterns

__all__ = ["ObjprofReport", "ReportFinding", "SiteStats", "build_report"]


@dataclass(slots=True)
class SiteStats:
    """Aggregated lifetime statistics of one allocation site."""

    site: str
    #: ``file:line`` of the allocating workload code ("" when unknown).
    origin: str
    n_objects: int = 0
    faults: int = 0
    refaults: int = 0
    diffs: int = 0
    diff_bytes: int = 0
    invalidations: int = 0
    dead_transfers: int = 0
    reads: int = 0
    writes: int = 0
    #: Horvitz–Thompson-corrected access mass from the sampled OALs.
    ht_bytes: int = 0
    #: total wasted ns attributed to this site across all findings.
    wasted_ns: int = 0
    #: barrier-phase span the site's objects were active in.
    first_phase: int = -1
    last_phase: int = -1

    def to_json(self) -> dict:
        return {
            "site": self.site,
            "origin": self.origin,
            "n_objects": self.n_objects,
            "faults": self.faults,
            "refaults": self.refaults,
            "diffs": self.diffs,
            "diff_bytes": self.diff_bytes,
            "invalidations": self.invalidations,
            "dead_transfers": self.dead_transfers,
            "reads": self.reads,
            "writes": self.writes,
            "ht_bytes": self.ht_bytes,
            "wasted_ns": self.wasted_ns,
            "first_phase": self.first_phase,
            "last_phase": self.last_phase,
        }


@dataclass(slots=True)
class ReportFinding:
    """One pattern aggregated over a site's objects."""

    pattern: str
    site: str
    origin: str
    obj_ids: tuple[int, ...]
    #: writer threads observed on the covered objects (sorted).
    threads: tuple[int, ...]
    wasted_ns: int
    #: suggested home node (contended-home only).
    target_node: int | None
    detail: str

    @property
    def n_objects(self) -> int:
        return len(self.obj_ids)

    def render(self) -> str:
        where = f" -> node {self.target_node}" if self.target_node is not None else ""
        return (
            f"{self.pattern:<16} site {self.site:<20} "
            f"{self.n_objects:>4} obj  {self.wasted_ns / 1e6:>9.3f} ms{where}  "
            f"[{self.origin or '?'}] {self.detail}"
        )

    def to_json(self) -> dict:
        return {
            "pattern": self.pattern,
            "site": self.site,
            "origin": self.origin,
            "obj_ids": list(self.obj_ids),
            "threads": list(self.threads),
            "n_objects": self.n_objects,
            "wasted_ns": self.wasted_ns,
            "target_node": self.target_node,
            "detail": self.detail,
        }


@dataclass
class ObjprofReport:
    """The complete object-centric inefficiency report for one run."""

    workload: str
    n_nodes: int
    backend: str
    #: barrier-release phases the run went through.
    phases: int
    #: objects with at least one profiled event.
    n_objects: int
    sites: list[SiteStats] = field(default_factory=list)
    #: every aggregated finding, ranked by descending wasted ns.
    findings: list[ReportFinding] = field(default_factory=list)

    @property
    def patterns_found(self) -> list[str]:
        """Distinct patterns present, in rank order of first appearance."""
        seen: list[str] = []
        for f in self.findings:
            if f.pattern not in seen:
                seen.append(f.pattern)
        return seen

    def render(self, top: int = 10) -> str:
        lines = [
            f"# object-centric inefficiency report: {self.workload} "
            f"on {self.n_nodes} nodes",
            f"# backend {self.backend} | {self.phases} phases | "
            f"{self.n_objects} profiled objects | {len(self.findings)} finding(s) "
            f"across {len(self.patterns_found)} pattern(s)",
            "# access mass HT-corrected by the backend's gap weights; "
            "event counts exact",
        ]
        for rank, finding in enumerate(self.findings[:top], start=1):
            lines.append(f"{rank:>4}  {finding.render()}")
        if len(self.findings) > top:
            lines.append(f"      ... {len(self.findings) - top} more (use --top)")
        lines.append("# per-site lifetime profiles (HT access mass, phase span):")
        for s in self.sites:
            lines.append(
                f"  site {s.site:<20} [{s.origin or '?':<36}] {s.n_objects:>5} obj  "
                f"{s.faults:>6} faults  {s.invalidations:>6} inval  "
                f"{s.ht_bytes:>10} HT-B  phases {s.first_phase}..{s.last_phase}  "
                f"wasted {s.wasted_ns / 1e6:.3f} ms"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON form (``python -m repro.obs report --json``; the objprof
        gate compares two runs' documents)."""
        return {
            "kind": "objprof-report",
            "workload": self.workload,
            "n_nodes": self.n_nodes,
            "backend": self.backend,
            "phases": self.phases,
            "n_objects": self.n_objects,
            "sites": [s.to_json() for s in self.sites],
            "findings": [f.to_json() for f in self.findings],
        }


def build_report(
    prof,
    gos,
    costs,
    network,
    *,
    workload: str = "",
    n_nodes: int = 0,
    backend: str = "",
) -> ObjprofReport:
    """Aggregate one run's :class:`ObjectProfiler` state into the report.

    ``gos`` resolves object -> (site label, size, home); ``costs`` and
    ``network`` price the findings.  Deterministic: objects are walked
    in id order and every aggregate is sorted, so identical runs render
    identical reports byte for byte.
    """
    site_stats: dict[str, SiteStats] = {}
    # (pattern, site, target_node) -> [obj_ids, threads, wasted, detail]
    grouped: dict[tuple[str, str, int | None], list] = {}

    for obj_id in sorted(prof.records):
        rec = prof.records[obj_id]
        obj = gos.get(obj_id)
        site = obj.site if obj.site is not None else obj.jclass.name
        origin = gos.site_origins.get(site, "")
        stats = site_stats.get(site)
        if stats is None:
            stats = site_stats[site] = SiteStats(site=site, origin=origin)
        stats.n_objects += 1
        stats.faults += rec.faults
        stats.refaults += rec.refaults
        stats.diffs += rec.diffs
        stats.diff_bytes += rec.diff_bytes
        stats.invalidations += rec.invalidations
        stats.dead_transfers += rec.dead_transfers
        stats.reads += sum(rec.reads_by_node.values())
        stats.writes += sum(rec.writes_by_node.values())
        stats.ht_bytes += rec.ht_bytes
        if rec.first_phase >= 0:
            if stats.first_phase < 0 or rec.first_phase < stats.first_phase:
                stats.first_phase = rec.first_phase
            if rec.last_phase > stats.last_phase:
                stats.last_phase = rec.last_phase

        for finding in detect_object_patterns(rec, obj, costs, network):
            key = (finding.pattern, site, finding.target_node)
            group = grouped.get(key)
            if group is None:
                group = grouped[key] = [[], set(), 0, finding.detail]
            group[0].append(obj_id)
            group[1].update(rec.writer_threads)
            group[2] += finding.wasted_ns
            stats.wasted_ns += finding.wasted_ns

    findings = [
        ReportFinding(
            pattern=pattern,
            site=site,
            origin=site_stats[site].origin,
            obj_ids=tuple(obj_ids),
            threads=tuple(sorted(threads)),
            wasted_ns=wasted,
            target_node=target,
            detail=detail if len(obj_ids) == 1 else f"{len(obj_ids)} obj, e.g. {detail}",
        )
        for (pattern, site, target), (obj_ids, threads, wasted, detail) in grouped.items()
    ]
    findings.sort(
        key=lambda f: (-f.wasted_ns, f.pattern, f.site, -1 if f.target_node is None else f.target_node)
    )
    sites = sorted(site_stats.values(), key=lambda s: (-s.wasted_ns, s.site))
    return ObjprofReport(
        workload=workload,
        n_nodes=n_nodes,
        backend=backend,
        phases=prof.phase,
        n_objects=len(prof.records),
        sites=sites,
        findings=findings,
    )
