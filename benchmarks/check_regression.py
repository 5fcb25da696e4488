"""Fail when the current perf report regresses against the baseline.

Usage::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json

Compares every wall-time in the two ``BENCH_perf.json``-shaped reports
(workload phases and kernels).  Exits non-zero when any wall-time in
CURRENT is more than ``PERF_TOLERANCE`` (default 0.20 = 20%) slower than
BASELINE, after an absolute slack of ``PERF_ABS_SLACK_S`` (default
0.02 s) that keeps millisecond-scale measurements — whose run-to-run
scheduler noise easily exceeds 20% — from flaking the guard.
Determinism checksums are compared too: a mismatch means the simulation
itself changed, which a perf-only PR must not do, and is reported as a
hard failure regardless of tolerance.  The same rule applies to the
telemetry metrics snapshots recorded in each workload's ``telemetry``
phase: every sample is simulated state, so any drift between baseline
and current is a silent behavior change and fails hard (wall times in
that phase get the normal tolerance).

The ``scale`` phase (scalar oracle vs vectorized access replay on the
SOR node ladder) is judged on correctness, not speed: its wall times
are printed as advisory, but the scalar and vector checksums must be
identical within CURRENT and unchanged against BASELINE.

The ``frontier`` phase (sampling-backend accuracy vs overhead) follows
the same split: per-backend E_ABS / decision-cost / wall-overhead rows
are advisory prints, while the phase's recorded gate booleans — prime
gap reproducing the default policy's TCM byte-for-byte, a stateless
backend within 2x E_ABS at lower decision cost, the small-working-set
dead-zone probe flagged — are hard failures when false.
"""

from __future__ import annotations

import json
import os
import sys

DEFAULT_TOLERANCE = 0.20
DEFAULT_ABS_SLACK_S = 0.02


def iter_wall_times(report: dict):
    """Yield (label, wall_s) for every measurement in a report."""
    for wl, phases in sorted(report.get("workloads", {}).items()):
        for phase, rec in sorted(phases.items()):
            if isinstance(rec, dict) and "wall_s" in rec:
                yield f"workload:{wl}/{phase}", rec["wall_s"]
    for kernel, rec in sorted(report.get("kernels", {}).items()):
        if isinstance(rec, dict) and "wall_s" in rec:
            yield f"kernel:{kernel}", rec["wall_s"]


def checksums(report: dict) -> dict:
    return {
        wl: phases.get("checksum")
        for wl, phases in sorted(report.get("workloads", {}).items())
        if isinstance(phases, dict) and phases.get("checksum") is not None
    }


def telemetry_snapshots(report: dict) -> dict:
    out = {}
    for wl, phases in sorted(report.get("workloads", {}).items()):
        snap = phases.get("telemetry", {}).get("snapshot") if isinstance(phases, dict) else None
        if snap is not None:
            out[wl] = snap
    return out


def diff_snapshot(expect: dict, got: dict) -> list[str]:
    """Per-sample drift lines between two telemetry snapshots."""
    lines = []
    for key in sorted(set(expect) | set(got)):
        a, b = expect.get(key), got.get(key)
        if a != b:
            lines.append(f"{key}: {a} -> {b}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    baseline_path, current_path = argv
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
        with open(current_path) as f:
            current = json.load(f)
    except OSError as exc:
        print(f"error: cannot read report: {exc}")
        return 2
    tolerance = float(os.environ.get("PERF_TOLERANCE", DEFAULT_TOLERANCE))
    abs_slack = float(os.environ.get("PERF_ABS_SLACK_S", DEFAULT_ABS_SLACK_S))

    base_walls = dict(iter_wall_times(baseline))
    failures = []
    for label, wall in iter_wall_times(current):
        base = base_walls.get(label)
        if base is None:
            print(f"  NEW   {label:40s} {wall:.4f}s (no baseline)")
            continue
        ratio = wall / base if base > 0 else float("inf")
        status = "ok"
        if wall > base * (1.0 + tolerance) + abs_slack:
            status = "REGRESSION"
            failures.append(
                f"{label}: {base:.4f}s -> {wall:.4f}s "
                f"(+{(ratio - 1) * 100:.0f}%, tolerance {tolerance * 100:.0f}%)"
            )
        print(f"  {status:10s} {label:40s} {base:.4f}s -> {wall:.4f}s ({ratio:.2f}x)")

    base_sums = checksums(baseline)
    for wl, summ in checksums(current).items():
        expect = base_sums.get(wl)
        if expect is not None and summ != expect:
            failures.append(f"{wl}: determinism checksum changed (simulated results differ)")

    # Scale phase: wall times are advisory (multi-second runs on shared
    # hardware are too noisy to gate on), but the result checksums are
    # hard requirements — vector replay must match the scalar oracle
    # byte for byte, and neither may drift from the committed baseline.
    base_scale = baseline.get("scale", {})
    for rung, point in sorted(current.get("scale", {}).items()):
        if not isinstance(point, dict):
            continue
        scalar = point.get("scalar", {}).get("wall_s")
        vector = point.get("vector", {}).get("wall_s")
        fresh = point.get("vector_fresh", {}).get("wall_s")
        if scalar is not None and vector is not None and fresh is not None:
            print(
                f"  scale      {rung:40s} scalar {scalar:.4f}s -> "
                f"vector {vector:.4f}s ({point.get('speedup', 0):.2f}x), "
                f"fresh {fresh:.4f}s ({point.get('speedup_fresh', 0):.2f}x, advisory)"
            )
        for key in ("checksum_vector", "checksum_fresh"):
            if point.get("checksum_scalar") != point.get(key):
                failures.append(
                    f"scale:{rung}: vector replay {key} diverged from the "
                    f"scalar oracle"
                )
        expect = base_scale.get(rung)
        if expect is not None:
            for key in ("checksum_scalar", "checksum_vector", "checksum_fresh"):
                if expect.get(key) != point.get(key):
                    failures.append(
                        f"scale:{rung}: {key} changed vs baseline "
                        f"(simulated results differ)"
                    )

    # Frontier phase: accuracy/cost rows are advisory (decision cost and
    # wall overhead are machine-dependent), the gate booleans are hard.
    frontier = current.get("frontier", {})
    for wl, rec in sorted(frontier.get("workloads", {}).items()):
        for backend, row in sorted(rec.get("backends", {}).items()):
            print(
                f"  frontier   {wl}/{backend:30s} e_abs {row.get('e_abs', 0):.4f}  "
                f"decide {row.get('decide_ns', 0):8.1f} ns  "
                f"overhead {row.get('overhead_frac', 0) * 100:+.1f}% (advisory)"
            )
    for gate, ok in sorted(frontier.get("gates", {}).items()):
        if not ok:
            failures.append(f"frontier:{gate}: gate failed")

    base_snaps = telemetry_snapshots(baseline)
    for wl, snap in telemetry_snapshots(current).items():
        expect = base_snaps.get(wl)
        if expect is None:
            continue
        drift = diff_snapshot(expect, snap)
        if drift:
            for line in drift[:10]:
                print(f"  telemetry drift {wl}: {line}")
            failures.append(
                f"{wl}: telemetry snapshot drifted ({len(drift)} sample(s)) — "
                f"simulated results differ"
            )

    if failures:
        print("\nFAIL:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("\nOK: no wall-time regression beyond tolerance, checksums stable")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
