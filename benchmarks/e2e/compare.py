"""Compare two sets of benchmark results, one row per (metric, workload).

    python benchmarks/e2e/compare.py A B [--record-spread]

``A`` (the parent, or the first of an A/A pair) and ``B`` (the change) are
each a result file written by ``run.py`` or a directory of them — one file
per run, typically ten runs with ten seeds.  Bounds come from
``BENCHMARK.json``.

Verdicts follow the choosing-metrics guide, section 6.5:

``worse``       B's median is worse than A's by more than the bound
``unresolved``  the run-to-run spread is wider than the bound and the runs
                of A and B overlap, so the bound cannot be checked
``ok``          otherwise

Simulated metrics repeat bit-for-bit at a fixed seed, so where A and B hold
runs with the same seed they are compared run by run and any worsening is
``worse``; a change in either direction is flagged ``changed``.  Exit code 1
if any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent.parent / "BENCHMARK.json"

sys.path.insert(0, str(HERE))

from catalog import END_TO_END  # noqa: E402

CLOCK = {m.name: m.clock for m in END_TO_END}


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    runs = [r for r in runs if "manifest" in r and "workloads" in r]
    if not runs:
        raise SystemExit(f"compare.py: no result files in {path}")
    return runs


def values_of(runs: list[dict], workload: str, metric: str) -> dict[int, list[float]]:
    """{seed: values}: one value per run, or — when the side is a single run —
    that run's timed-iteration samples, so a spread can still be shown."""
    out: dict[int, list[float]] = {}
    for run in runs:
        got = run["workloads"].get(workload, {}).get("untraced", {}).get("end_to_end", {})
        entry = got.get(metric)
        if entry is None or entry.get("value") is None:
            continue
        values = entry["samples"] if len(runs) == 1 and "samples" in entry else [entry["value"]]
        out.setdefault(run["manifest"]["seed"], []).extend(values)
    return out


def failures(runs: list[dict], workload: str) -> tuple[int, int]:
    """(failed, attempted) over every pass of every run."""
    passes = [p for run in runs for p in run["workloads"].get(workload, {}).values()]
    return sum(p["failed"] for p in passes), sum(p["attempted"] for p in passes)


def checksums(runs: list[dict], workload: str) -> dict[int, str]:
    """{seed: checksum of the untraced pass}."""
    out = {}
    for run in runs:
        checksum = run["workloads"].get(workload, {}).get("untraced", {}).get("checksum")
        if checksum is not None:
            out[run["manifest"]["seed"]] = checksum
    return out


def spread(values: list[float]) -> tuple[float, str]:
    """Run-to-run spread as a share of the median: interquartile distance
    from four values up, the whole range below that."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0, "-"
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(median), "iqr"
    return (max(values) - min(values)) / abs(median), "range"


def compare_metric(a_by_seed: dict, b_by_seed: dict, better: str, bound: float, exact: bool) -> dict:
    a = [v for vs in a_by_seed.values() for v in vs]
    b = [v for vs in b_by_seed.values() for v in vs]
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spread_a, kind = spread(a)
    spread_b, _ = spread(b)
    row = {
        "median_a": med_a, "median_b": med_b, "spread_a": spread_a, "spread_b": spread_b,
        "spread_kind": kind, "worse_by": worse_by, "bound": bound, "note": "",
    }
    shared = sorted(set(a_by_seed) & set(b_by_seed))
    if exact and shared:
        moves = [sign * (b_by_seed[s][0] - a_by_seed[s][0]) for s in shared]
        if any(moves):
            row["note"] = f"changed at {sum(1 for m in moves if m)} of {len(shared)} seeds"
        row["verdict"] = "worse" if any(m > 0 for m in moves) else "ok"
        return row
    # "Badness": lower is better on both sides whatever the metric's sense.
    bad_a, bad_b = [sign * v for v in a], [sign * v for v in b]
    overlap = min(bad_b) <= max(bad_a) and min(bad_a) <= max(bad_b)
    if max(spread_a, spread_b) > bound and overlap:
        row["verdict"] = "unresolved"
    elif worse_by > bound:
        row["verdict"] = "worse"
    else:
        row["verdict"] = "ok"
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument(
        "--record-spread", action="store_true",
        help="store the spreads of this A/A pair in aa_spread.json (run.py copies it into its manifest)",
    )
    args = parser.parse_args(argv)
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    benchmark = json.loads(BENCHMARK_JSON.read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]

    rows = []
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        for workload in workloads:
            a, b = values_of(runs_a, workload, name), values_of(runs_b, workload, name)
            if not a or not b:
                continue
            row = compare_metric(
                a, b, metric["better"], metric["bound"], exact=CLOCK.get(name) == "simulated"
            )
            rows.append({"metric": name, "workload": workload, **row})

    for workload in workloads:
        (failed_a, tried_a), (failed_b, tried_b) = failures(runs_a, workload), failures(runs_b, workload)
        if tried_a and tried_b:
            rows.append({
                "metric": "failed_share", "workload": workload,
                "median_a": failed_a / tried_a, "median_b": failed_b / tried_b,
                "spread_a": 0.0, "spread_b": 0.0, "spread_kind": "-",
                "worse_by": failed_b / tried_b - failed_a / tried_a, "bound": 0.0,
                "note": f"{failed_b} of {tried_b} failed in B",
                "verdict": "worse" if failed_b else "ok",
            })
        sums_a, sums_b = checksums(runs_a, workload), checksums(runs_b, workload)
        shared = sorted(set(sums_a) & set(sums_b))
        if shared:
            same = sum(1 for seed in shared if sums_a[seed] == sums_b[seed])
            print(f"checksum {workload}: {'identical' if same == len(shared) else 'DIFFERENT'} "
                  f"at {same} of {len(shared)} shared seeds")

    print(f"{'metric':17s} {'workload':19s} {'median A':>12s} {'spread A':>9s} {'median B':>12s} "
          f"{'spread B':>9s} {'worse by':>9s} {'bound':>6s}  verdict")
    for row in rows:
        print(
            f"{row['metric']:17s} {row['workload']:19s} {row['median_a']:12.6g} "
            f"{100 * row['spread_a']:8.2f}% {row['median_b']:12.6g} {100 * row['spread_b']:8.2f}% "
            f"{100 * row['worse_by']:+8.2f}% {100 * row['bound']:5.1f}%  {row['verdict']}"
            + (f" ({row['spread_kind']})" if row["spread_kind"] != "-" else "")
            + (f"  {row['note']}" if row["note"] else "")
        )
    worse = [r for r in rows if r["verdict"] == "worse"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved")

    if args.record_spread:
        keys = ("metric", "workload", "median_a", "median_b", "spread_a", "spread_b", "worse_by", "verdict")
        record = {
            "git_rev": runs_a[0]["manifest"]["git_rev"],
            "result_files_per_side": [len(runs_a), len(runs_b)],
            "spread": "interquartile distance over the median of the run-level values, per side",
            "rows": [
                {k: round(r[k], 6) if isinstance(r[k], float) else r[k] for k in keys}
                for r in rows if r["metric"] != "failed_share"
            ],
        }
        (HERE / "aa_spread.json").write_text(json.dumps(record, indent=1) + "\n")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
