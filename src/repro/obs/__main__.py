"""``python -m repro.obs`` — the telemetry subsystem CLI.

Subcommands:

* ``summary [--workload W] [--nodes N] [--rate R]`` — run one workload
  with metrics+tracing and print the snapshot digest.
* ``export [--workload W] [--nodes N] [--rate R] --trace OUT.json
  [--prom OUT.txt] [--snapshot OUT.json]`` — run with tracing and write
  the Chrome-trace JSON (load it in chrome://tracing or ui.perfetto.dev)
  plus, optionally, the Prometheus text and the snapshot JSON.
* ``diff A.json B.json`` — compare two snapshot JSON files; any metric
  drift between identically-configured runs is a silent behavior
  change, so drift exits 1 (a missing/unreadable snapshot exits 2).
* ``gate`` — the ``make obs`` gate: runs bench-scale SOR once without
  and once with a span tracer, asserts byte-identity of the simulated
  results and schema-validates the exported Chrome trace.  The
  telemetry wall overhead and the layer's self-reported host time are
  printed, not judged (one ~20 ms sample; host-time verdicts are
  ``benchmarks/e2e``'s job).
* ``report [--workload W] [--nodes N] [--rate R] [--top K] [--json]`` —
  the object-centric inefficiency report: run with the
  :mod:`repro.obs.objprof` observer attached, fold the
  fault/diff/invalidation/OAL stream into per-allocation-site lifetime
  profiles, and print the pattern findings (ping-pong, dead-transfer,
  over-invalidated, contended-home) ranked by estimated wasted
  simulated time.  ``--json`` emits the report as JSON (what the
  ``objprof`` gate compares run against run).
* ``compare [--workload W] [--nodes N] [--rate R]`` — run the dynamic
  correlation profiler AND the static sharing analysis
  (:mod:`repro.checks.staticflow`) on the same workload/placement, then
  print the static-vs-dynamic comparison: normalized-TCM structure
  accuracy, nonzero-support precision/recall, the per-site sharing
  table and the static may-race set size.
* ``objprof`` — the ``make objprof`` gate: for SOR, Barnes-Hut and
  Water-Spatial, asserts profiler-on/off byte-identity, report-twice
  determinism, and (Water-Spatial) that at least three distinct
  patterns rank with file:line site attribution.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.analysis import experiments as E
from repro.obs import SpanTracer, Telemetry
from repro.obs.export import prometheus_text, validate_chrome_trace, write_chrome_trace
from repro.obs.overhead import measure
from repro.runtime.djvm import run_fingerprint
from repro.workloads.barnes_hut import BarnesHutWorkload
from repro.workloads.sor import SORWorkload
from repro.workloads.water_spatial import WaterSpatialWorkload

#: CLI workload registry at check scale (matches repro.checks.runner).
WORKLOADS = {
    "sor": lambda: SORWorkload(n=256, rounds=2, n_threads=4, seed=11),
    "barnes-hut": lambda: BarnesHutWorkload(n_bodies=192, rounds=2, n_threads=4, seed=11),
    "water-spatial": lambda: WaterSpatialWorkload(n_molecules=64, rounds=2, n_threads=4, seed=11),
}

#: bench-scale SOR for the gate (mirrors benchmarks/common.py reduced scale).
GATE_FACTORY = lambda: SORWorkload(n=1024, rounds=4, n_threads=8, seed=11)  # noqa: E731
GATE_NODES = 8


def _run(
    workload: str,
    nodes: int,
    rate: float | str,
    backend: str | None = None,
    observers=(),
):
    factory = WORKLOADS[workload]
    return E.run_with_correlation(
        factory,
        n_nodes=nodes,
        rate=rate,
        send_oals=True,
        sampling_backend=backend,
        observers=observers,
    )


def _run_traced(args):
    """One run of ``args``' workload with a span tracer attached, and
    the telemetry view over it."""
    run = _run(
        args.workload, args.nodes, args.rate, backend=args.backend, observers=(SpanTracer(),)
    )
    return run, Telemetry(run.djvm)


def dispatch_line(hlrc) -> str:
    """How the run's profiler hooks are dispatched (the plan
    ``HomeBasedLRC.add_hook`` resolved)."""
    plan = ", ".join(f"{name}={mode}" for name, mode in hlrc.dispatch_plan) or "no hooks"
    return f"# hook dispatch: {plan}"


def cmd_summary(args) -> int:
    run, telemetry = _run_traced(args)
    run.suite.collector.tcm()  # fold pending batches so TCM gauges are final
    print(f"# {args.workload} on {args.nodes} nodes, rate {args.rate}")
    print(f"# sampling backend: {run.suite.policy.backend.name}")
    print(dispatch_line(run.djvm.hlrc))
    print(f"# simulated execution {run.result.execution_time_ms:.3f} ms")
    print(telemetry.summary())
    print(f"# telemetry self-overhead {telemetry.self_wall_ns / 1e6:.2f} ms wall")
    return 0


def cmd_export(args) -> int:
    run, telemetry = _run_traced(args)
    run.suite.collector.tcm()
    doc = write_chrome_trace(args.trace, telemetry.tracer)
    problems = validate_chrome_trace(doc)
    if problems:
        for p in problems:
            print(f"trace: {p}", file=sys.stderr)
        return 1
    print(f"wrote {args.trace} ({len(doc['traceEvents'])} events)")
    if args.prom:
        Path(args.prom).write_text(prometheus_text(telemetry.registry))
        print(f"wrote {args.prom}")
    if args.snapshot:
        Path(args.snapshot).write_text(json.dumps(telemetry.snapshot(), indent=1) + "\n")
        print(f"wrote {args.snapshot}")
    return 0


def diff_snapshots(a: dict, b: dict) -> list[str]:
    """Human-readable drift lines between two metric snapshots."""
    lines = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            lines.append(f"{key}: {va} -> {vb}")
    return lines


class SnapshotError(Exception):
    """A snapshot file could not be read or parsed."""


def load_snapshot(path: str) -> dict:
    """Read one snapshot JSON file; :class:`SnapshotError` with a
    human-readable message on a missing/unreadable/invalid file or one
    that holds no JSON object."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SnapshotError(
            f"cannot read snapshot {path}: {exc.strerror or exc}"
        ) from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise SnapshotError(f"snapshot {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SnapshotError(f"snapshot {path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def cmd_diff(args) -> int:
    try:
        a = load_snapshot(args.a)
        b = load_snapshot(args.b)
    except SnapshotError as exc:
        print(f"telemetry diff: {exc}", file=sys.stderr)
        return 2
    drift = diff_snapshots(a, b)
    for line in drift:
        print(line)
    if drift:
        print(f"telemetry diff: {len(drift)} metric(s) drifted", file=sys.stderr)
        return 1
    print(f"telemetry diff: identical ({len(a)} samples)")
    return 0


def _fingerprint_drift(a, b) -> list[str]:
    """Names of the :func:`run_fingerprint` components on which two
    finished ``run_with_correlation`` records differ."""
    fa = run_fingerprint(a.djvm, a.result, a.suite)
    fb = run_fingerprint(b.djvm, b.result, b.suite)
    return [name for name in fa if fa[name] != fb[name]]


def run_gate(*, verbose: bool = True) -> int:
    """The ``make obs`` gate; returns a process exit code."""
    captured = {}

    def run_base():
        captured["base"] = E.run_with_correlation(
            GATE_FACTORY, n_nodes=GATE_NODES, rate=4, send_oals=True
        )

    def run_telemetry():
        tracer = captured["tracer"] = SpanTracer()
        run = captured["telemetry"] = E.run_with_correlation(
            GATE_FACTORY, n_nodes=GATE_NODES, rate=4, send_oals=True, observers=(tracer,)
        )
        return Telemetry(run.djvm)

    run_base()  # discarded: first-call costs are the process's, not telemetry's
    report = measure(run_base, run_telemetry)
    failures = []

    # 1. byte-identity: telemetry must not perturb the simulation.
    moved = _fingerprint_drift(captured["base"], captured["telemetry"])
    if moved:
        failures.append(f"telemetry-on run is not byte-identical to telemetry-off: {moved}")

    # 2. exported trace must be schema-valid and well-nested.
    with tempfile.TemporaryDirectory() as tmp:
        doc = write_chrome_trace(Path(tmp) / "trace.json", captured["tracer"])
    problems = validate_chrome_trace(doc)
    for p in problems[:10]:
        failures.append(f"trace schema: {p}")

    if verbose:
        print(f"obs gate: {report.render()} (reported, not gated)")
        print(f"obs gate: trace {len(doc['traceEvents'])} events, "
              f"{len(problems)} schema problem(s)")
    if failures:
        for f in failures:
            print(f"obs gate FAIL: {f}", file=sys.stderr)
        return 1
    print("obs gate: OK")
    return 0


def cmd_gate(args) -> int:
    return run_gate()


def static_vs_dynamic(workload: str, nodes: int, rate: float | str) -> dict:
    """Run both views of one workload and compute the comparison record.

    The static side analyzes a fresh build with the same ``block``
    placement ``run_with_correlation`` uses, so object ids and
    thread->node maps line up cell for cell.
    """
    from repro.checks.staticflow import analyze
    from repro.core.accuracy import accuracy
    from repro.core.tcm import normalize_tcm

    run = _run(workload, nodes, rate)
    measured = run.suite.collector.tcm()
    static = analyze(
        WORKLOADS[workload](), n_nodes=nodes, placement="block", name=workload
    )
    predicted = static.sharing.predicted_tcm()
    # The static TCM counts bytes once per pair; the dynamic one
    # accumulates per-interval traffic.  Compare *structure*: normalize
    # both to peak 1 before scoring.
    norm_measured = normalize_tcm(measured)
    norm_predicted = normalize_tcm(predicted)
    pred_nz = norm_predicted > 0
    meas_nz = norm_measured > 0
    hits = int((pred_nz & meas_nz).sum())
    precision = hits / int(pred_nz.sum()) if pred_nz.any() else 1.0
    recall = hits / int(meas_nz.sum()) if meas_nz.any() else 1.0
    return {
        "run": run,
        "static": static,
        "measured": measured,
        "predicted": predicted,
        "structure_accuracy": accuracy(norm_predicted, norm_measured, metric="abs"),
        "support_precision": precision,
        "support_recall": recall,
        "n_pairs_predicted": int(pred_nz.sum()),
        "n_pairs_measured": int(meas_nz.sum()),
    }


def build_objprof_report(
    workload: str, nodes: int, rate: float | str, backend: str | None = None
):
    """Run one workload with the object-centric profiler attached and
    build its ranked report (no tracer: the report reads the objprof
    observer alone)."""
    from repro.obs.objprof import ObjectProfiler
    from repro.obs.report import build_report

    objprof = ObjectProfiler()
    run = _run(workload, nodes, rate, backend=backend, observers=(objprof,))
    djvm = run.djvm
    return run, build_report(
        objprof,
        djvm.gos,
        djvm.costs,
        djvm.cluster.network,
        workload=workload,
        n_nodes=nodes,
        backend=run.suite.policy.backend.name,
    )


def cmd_report(args) -> int:
    _run_record, report = build_objprof_report(
        args.workload, args.nodes, args.rate, backend=args.backend
    )
    if args.json:
        print(json.dumps(report.to_json(), indent=1))
    else:
        print(report.render(top=args.top))
    return 0


def cmd_compare(args) -> int:
    cmp = static_vs_dynamic(args.workload, args.nodes, args.rate)
    static = cmp["static"]
    print(f"# static vs dynamic: {args.workload} on {args.nodes} nodes, rate {args.rate}")
    if not static.verified:
        for p in static.problems:
            print(f"  {p.render()}", file=sys.stderr)
        return 1
    print(
        f"TCM structure accuracy {cmp['structure_accuracy'] * 100:.1f}%  "
        f"(nonzero pairs: predicted {cmp['n_pairs_predicted']}, "
        f"measured {cmp['n_pairs_measured']}; "
        f"precision {cmp['support_precision'] * 100:.0f}%, "
        f"recall {cmp['support_recall'] * 100:.0f}%)"
    )
    counts = static.sharing.counts()
    print("sharing: " + ", ".join(f"{n} {c}" for c, n in counts.items() if n))
    for site in sorted(static.sharing.sites):
        s = static.sharing.sites[site]
        print(
            f"  site {site:<24} {s.n_objects:>5} obj  "
            f"{s.classification:<18} shared {s.shared_bytes} B"
        )
    print(f"static may-race set: {len(static.races)} pair(s)")
    return 0


#: the objprof gate's run matrix (check-scale workloads, enough nodes
#: for cross-node sharing patterns to appear).
OBJPROF_GATE_NODES = 4
OBJPROF_GATE_RATE = 4
#: Water-Spatial must rank at least this many distinct patterns.
OBJPROF_MIN_PATTERNS = 3


def run_objprof_gate(*, verbose: bool = True) -> int:
    """The ``make objprof`` gate; returns a process exit code.

    Per workload: (1) profiler-on/off byte-identity of the simulated
    results, (2) report-twice determinism (identical JSON), and for
    Water-Spatial (3) at least :data:`OBJPROF_MIN_PATTERNS` distinct
    patterns ranked, every finding carrying a file:line site origin.
    """
    failures = []
    for workload in sorted(WORKLOADS):
        base = _run(workload, OBJPROF_GATE_NODES, OBJPROF_GATE_RATE)
        profiled, report = build_objprof_report(
            workload, OBJPROF_GATE_NODES, OBJPROF_GATE_RATE
        )
        moved = _fingerprint_drift(base, profiled)
        if moved:
            failures.append(f"{workload}: profiler-on run is not byte-identical: {moved}")
        _again, report2 = build_objprof_report(
            workload, OBJPROF_GATE_NODES, OBJPROF_GATE_RATE
        )
        if report.to_json() != report2.to_json():
            failures.append(f"{workload}: report is not deterministic across runs")
        if not report.findings:
            failures.append(f"{workload}: report ranked no findings")
        missing_origin = [f.site for f in report.findings if ":" not in f.origin]
        if missing_origin:
            failures.append(
                f"{workload}: findings without file:line origin: "
                f"{sorted(set(missing_origin))}"
            )
        if verbose:
            print(
                f"objprof gate: {workload}: {len(report.findings)} finding(s), "
                f"patterns {report.patterns_found}, "
                f"{report.n_objects} profiled objects"
            )
        if workload == "water-spatial" and len(report.patterns_found) < OBJPROF_MIN_PATTERNS:
            failures.append(
                f"water-spatial: only {report.patterns_found} ranked; "
                f"need >= {OBJPROF_MIN_PATTERNS} distinct patterns"
            )
    if failures:
        for f in failures:
            print(f"objprof gate FAIL: {f}", file=sys.stderr)
        return 1
    print("objprof gate: OK")
    return 0


def cmd_objprof(args) -> int:
    return run_objprof_gate()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p):
        from repro.core.sampling import BACKENDS

        p.add_argument("--workload", choices=sorted(WORKLOADS), default="sor")
        p.add_argument("--nodes", type=int, default=2)
        p.add_argument("--rate", default=4, type=lambda v: v if v == "full" else float(v))
        p.add_argument(
            "--backend",
            choices=sorted(BACKENDS),
            default=None,
            help="sampling backend (default: prime_gap)",
        )

    p = sub.add_parser("summary", help="run a workload, print the metrics digest")
    add_run_args(p)
    p.set_defaults(fn=cmd_summary)

    p = sub.add_parser("export", help="run a workload, write trace/metrics files")
    add_run_args(p)
    p.add_argument("--trace", required=True, help="Chrome-trace JSON output path")
    p.add_argument("--prom", help="Prometheus text output path")
    p.add_argument("--snapshot", help="metrics snapshot JSON output path")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("diff", help="diff two snapshot JSON files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("gate", help="the make-obs CI gate")
    p.set_defaults(fn=cmd_gate)

    p = sub.add_parser(
        "report", help="ranked object-centric inefficiency report for one workload"
    )
    add_run_args(p)
    p.add_argument("--top", type=int, default=10, help="findings shown in the table")
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON",
    )
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "compare", help="static-vs-dynamic sharing comparison for one workload"
    )
    add_run_args(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("objprof", help="the make-objprof CI gate")
    p.set_defaults(fn=cmd_objprof)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
