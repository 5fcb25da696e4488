"""The repository's benchmark: four long workloads, end to end and by layer.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                 [--trace {0,1}] [--smoke] [--out PATH]

Without ``--trace`` every selected workload runs untraced for the
end-to-end metrics and then traced for the per-layer metrics.  ``--trace 0``
or ``--trace 1`` runs only that pass.  Each pass of each workload runs in
its own fresh child interpreter, one child at a time (a closed loop of one
client), which is what makes ``peak_rss_mb`` a per-workload number.

Every metric is printed by name with its unit, outputs are checked, the
result is written to ``--out``, and when one ``--workload`` is named the
last line of standard output is the one-object JSON summary
``{"correct", "attempted", "failed", "metrics"}`` of that workload.
See README.md for what each number means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
#: a child that outlives this is killed and counted as failed.
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(SRC))

from catalog import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SMOKE_ITERATIONS,
    TIMED_ITERATIONS,
    WORKLOAD_BY_NAME,
    WORKLOADS,
)


def child_main(request: dict) -> None:
    """Measure one pass of one workload and print the result as one JSON line."""
    import measure

    spec = WORKLOAD_BY_NAME[request["workload"]]
    sizes = spec.smoke_sizes if request["smoke"] else spec.sizes
    if request["trace"]:
        trace_out = request["trace_out"]
        result = measure.measure_traced(
            spec, sizes, seed=request["seed"], trace_out=trace_out and Path(trace_out)
        )
    else:
        result = measure.measure_untraced(
            spec,
            sizes,
            seed=request["seed"],
            iterations=SMOKE_ITERATIONS if request["smoke"] else TIMED_ITERATIONS,
            seconds=0.0 if request["smoke"] else request["seconds"],
        )
    print(json.dumps(result))


def run_child(request: dict) -> dict:
    """One fresh interpreter per pass; a dead or mute child is a failed pass."""
    command = [sys.executable, str(HERE / "run.py"), "--child", json.dumps(request)]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False
        )
        problem = f"child exited with code {done.returncode}" if done.returncode else None
        lines = done.stdout.strip().splitlines()
    except subprocess.TimeoutExpired:
        problem, lines = f"child killed after {CHILD_TIMEOUT_S} s", []
    if problem is None:
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            problem = "child printed no result"
    kind = "per_layer" if request["trace"] else "end_to_end"
    return {"attempted": 1, "failed": 1, "problems": [problem], kind: {}}


def manifest(args, selected) -> dict:
    import numpy

    def git(*argv: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", "-C", str(REPO), *argv], capture_output=True, text=True, check=False
            )
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    aa_spread = HERE / "aa_spread.json"
    return {
        "git_rev": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "load": "closed loop, one client: one process, one thread, one child at a time",
        "timed_iterations": SMOKE_ITERATIONS if args.smoke else TIMED_ITERATIONS,
        "sizes": {w.name: (w.smoke_sizes if args.smoke else w.sizes) for w in selected},
        "aa_spread_last_measured": json.loads(aa_spread.read_text()) if aa_spread.exists() else None,
    }


def _fmt(value) -> str:
    if value is None:
        return "missing"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_end_to_end(name: str, result: dict) -> None:
    metrics = result["end_to_end"]
    for metric in END_TO_END:
        got = metrics.get(metric.name, {})
        line = f"{name:20s} {metric.name:18s} {_fmt(got.get('value')):>12s} {metric.unit:7s}"
        if "n" in got:
            # Under 20 samples there is no percentile with ten samples beyond
            # it, so none is reported: median, min, max and the count.
            line += f" median of n={got['n']}  min {_fmt(got['min'])}  max {_fmt(got['max'])}"
        print(f"{line}  [{metric.clock}]")
    share = result["failed"] / result["attempted"]
    print(f"{name:20s} {'failed_share':18s} {_fmt(share):>12s} {'ratio':7s} "
          f"{result['failed']} of {result['attempted']}")
    slowdown = metrics.get("sim_slowdown", {}).get("value")
    if slowdown is not None:
        print(f"{name:20s} {'sim_overhead_pct':18s} {_fmt(100 * (slowdown - 1)):>12s} {'%':7s} "
              "derived from sim_slowdown  [simulated]")
    if "checksum" in result:
        print(f"{name:20s} {'checksum':18s} {result['checksum']}")


def print_per_layer(name: str, result: dict) -> None:
    metrics = result["per_layer"]
    for metric, unit, _better in PER_LAYER:
        print(f"{name:20s} {metric:40s} {_fmt(metrics.get(metric, {}).get('value')):>12s} {unit}")
    print(f"{name:20s} {'failed':40s} {result['failed']} of {result['attempted']}")


def summary_line(passes: dict) -> str:
    """The one-object summary of one workload: every metric of the passes that
    ran, with its unit; ``correct`` only if nothing failed and none is missing."""
    wanted = {
        "untraced": ("end_to_end", [(m.name, m.unit) for m in END_TO_END]),
        "traced": ("per_layer", [(name, unit) for name, unit, _better in PER_LAYER]),
    }
    attempted = failed = 0
    metrics = {}
    complete = True
    for which, result in passes.items():
        kind, names = wanted[which]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, unit in names:
            value = result[kind].get(name, {}).get("value")
            complete = complete and value is not None
            metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
    return json.dumps(
        {
            "correct": complete and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_BY_NAME), help="default: all four")
    parser.add_argument("--seed", type=int, default=0, help="passed to the workload constructors only")
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help=f"timed iterations continue past {TIMED_ITERATIONS} until this long has been measured",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), help="run only the untraced (0) or traced (1) pass")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, 2 iterations (the smoke test)")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "result.json")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: no simulator at {SRC / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.child is not None:
        child_main(json.loads(args.child))
        return 0

    started = time.perf_counter()
    selected = [WORKLOAD_BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    document = {"manifest": manifest(args, selected), "workloads": {w.name: {} for w in selected}}
    request = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke}
    failed = 0

    # The untraced pass of every workload first, then the traced pass.
    if args.trace != 1:
        for spec in selected:
            result = run_child({**request, "workload": spec.name, "trace": 0})
            document["workloads"][spec.name]["untraced"] = result
            print_end_to_end(spec.name, result)
            failed += result["failed"]
    if args.trace != 0:
        for spec in selected:
            trace_out = args.out.parent / f"trace-{spec.name}.json"
            result = run_child(
                {**request, "workload": spec.name, "trace": 1, "trace_out": str(trace_out)}
            )
            document["workloads"][spec.name]["traced"] = result
            print_per_layer(spec.name, result)
            failed += result["failed"]

    for name, passes in document["workloads"].items():
        for result in passes.values():
            for problem in result["problems"]:
                print(f"{name}: FAILED {problem}", file=sys.stderr)
    document["manifest"]["benchmark_wall_s"] = time.perf_counter() - started
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=1))
    print(f"wrote {args.out} after {document['manifest']['benchmark_wall_s']:.1f} s")

    if args.workload:
        print(summary_line(document["workloads"][args.workload]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
