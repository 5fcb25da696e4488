"""Accuracy-vs-overhead frontier across sampling backends.

One full-sampling profiled run per workload yields the reference TCM;
because every backend's decision is a pure function of immutable object
identity, the TCM each backend would have produced at rate 4 is computed
by *filtering* that same OAL stream (``tcm_at_rate(..., backend=...)``)
— exactly what a re-run under that backend would log.  Against the
reference we publish, per backend x workload:

* ``e_abs`` / ``e_euc`` — the paper's formulas (2)/(1) of the rate-4
  map against the full-sampling map (``core/accuracy.error_summary``),
* ``decide_ns`` — per-decision cost through the backend's batch lane
  (a fresh policy per timed call): ``SamplingPolicy.decide_batch``, the
  lane a run's first touches of classes off gap 1 are decided through
  (``SamplingPolicy.first_touches``) and a rate replay decides a log's
  distinct objects through (``resampled_tcm``).  Prime-gap loops over
  its Python kernel; hash takes its numpy lane (4096 objects).
  The one host-time figure here, and the one host-time *gate* in
  ``make check``: both sides of the comparison are medians of
  :data:`DECIDE_SAMPLES` calls timed in this process, minutes apart at
  most — not a number recorded on another day or machine.  What a
  backend costs a whole run is a ``benchmarks/e2e`` question.

Plus the stateless-bias diagnostics: ``dead_zone_report`` over each
workload's live heap, and a synthetic small-working-set probe (a class
whose population x inclusion probability is < 1) that the hash backend
MUST flag — the PAGE_HASH failure mode.

Hard gates (``main`` exit code):

* the prime-gap backend's replayed TCM is byte-identical to the default
  policy's (the refactor moved code, not behavior),
* at least one stateless backend reaches E_ABS within 2x of prime-gap
  while deciding cheaper per access,
* the dead-zone probe is flagged.

Usage::

    PYTHONPATH=src python benchmarks/frontier.py [--mode smoke|full]
        [--output PATH]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from common import workload_factories
from repro.analysis import experiments as E
from repro.core.accuracy import error_summary
from repro.core.sampling import SamplingPolicy, resolve_backend
from repro.heap.heap import GlobalObjectSpace

N_THREADS = 8
N_NODES = 8
RATE = 4

FULL_BACKENDS = ("prime_gap", "poisson", "hash", "hybrid")
SMOKE_BACKENDS = ("prime_gap", "hash")

#: absolute slack on the 2x E_ABS gate — workloads whose arrays are
#: always sampled put prime-gap at e_abs ~ 0, where a pure ratio test
#: is degenerate.
EABS_SLACK = 0.01

#: timed calls behind a ``decide_ns`` figure.  One call is ~4 ms and
#: the cheaper-than-prime-gap gate compares two such figures, so a
#: single sample flips it on scheduler noise; the median of 7 does not.
DECIDE_SAMPLES = 7


def _decide_cost_ns(backend_name: str, gos) -> float:
    """Per-decision cost through the batch lane: a fresh policy per
    timed run, each object decided once by the backend's kernel (or the
    hash backend's numpy lane) — what a first-touch access costs.
    Median of :data:`DECIDE_SAMPLES` timed calls."""
    objs = list(gos)[:4096]
    if not objs:
        return 0.0

    def run():
        policy = SamplingPolicy(backend=resolve_backend(backend_name))
        for jclass in gos.registry:
            policy.set_rate(jclass, RATE)
        return policy.decide_batch(objs)

    # Discarded call: the backend's imports and first-call warm-up are
    # paid once per process, not per first-touch access.
    assert len(run()) == len(objs)
    walls = []
    for _ in range(DECIDE_SAMPLES):
        gc.collect()
        t0 = time.perf_counter()
        run()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls) * 1e9 / len(objs)


def _dead_zone_probe(backend_name: str) -> dict:
    """Synthetic small-working-set heap: 30 objects of a 96-byte class
    at rate 1 (gap ~41) give an expected sample count under 1 — any
    stateless backend must flag the class as structurally biased."""
    gos = GlobalObjectSpace()
    rare = gos.registry.define("Probe", 96)
    policy = SamplingPolicy(backend=resolve_backend(backend_name))
    policy.set_rate(rare, 1)
    for _ in range(30):
        gos.allocate("Probe", home_node=0)
    report = policy.backend.dead_zone_report(gos)
    return {
        "population": 30,
        "gap": policy.gap(rare),
        "flagged": any(r["class"] == "Probe" for r in report),
        "report": report,
    }


def measure_frontier(mode: str = "full") -> dict:
    """The frontier: accuracy, decision cost and dead-zone diagnostics
    per backend x workload, plus the hard-gate booleans.  ``smoke``
    restricts to SOR under prime_gap + hash — the make-check / CI
    configuration."""
    factories = workload_factories(N_THREADS)
    backends = FULL_BACKENDS
    if mode == "smoke":
        factories = factories[:1]
        backends = SMOKE_BACKENDS

    out: dict[str, object] = {"rate": RATE, "mode": mode, "workloads": {}}
    gate_2x = {}
    for name, factory in factories:
        batches, gos, n_threads, _run = E.collect_full_batches(factory, N_NODES)
        full = E.tcm_at_rate(batches, gos, n_threads, "full")
        default_r4 = E.tcm_at_rate(batches, gos, n_threads, RATE)
        default_sha = hashlib.sha256(default_r4.tobytes()).hexdigest()

        rows: dict[str, dict] = {}
        for backend_name in backends:
            tcm = E.tcm_at_rate(
                batches, gos, n_threads, RATE, backend=resolve_backend(backend_name)
            )
            row = dict(error_summary(tcm, full))
            row["tcm_sha256"] = hashlib.sha256(tcm.tobytes()).hexdigest()
            row["decide_ns"] = round(_decide_cost_ns(backend_name, gos), 1)
            for key in ("e_abs", "e_euc", "accuracy_abs", "accuracy_euc"):
                row[key] = round(row[key], 6)

            replay_backend = resolve_backend(backend_name)
            if hasattr(replay_backend, "dead_zone_report"):
                policy = SamplingPolicy(backend=replay_backend)
                for jclass in gos.registry:
                    policy.set_rate(jclass, RATE)
                row["dead_zones"] = policy.backend.dead_zone_report(gos)
            rows[backend_name] = row
            print(
                f"frontier {name:14s} {backend_name:10s} "
                f"e_abs {row['e_abs']:.4f}  decide {row['decide_ns']:8.1f} ns",
                flush=True,
            )

        prime = rows["prime_gap"]
        gate_2x[name] = any(
            rows[b]["e_abs"] <= 2.0 * prime["e_abs"] + EABS_SLACK
            and rows[b]["decide_ns"] < prime["decide_ns"]
            for b in backends
            if b != "prime_gap"
        )
        out["workloads"][name] = {
            "backends": rows,
            "prime_gap_matches_default": prime["tcm_sha256"] == default_sha,
        }

    probe = _dead_zone_probe("hash")
    out["dead_zone_probe"] = probe
    out["gates"] = {
        "prime_gap_matches_default": all(
            wl["prime_gap_matches_default"] for wl in out["workloads"].values()
        ),
        "stateless_within_2x_and_cheaper": all(gate_2x.values()),
        "dead_zone_probe_flagged": probe["flagged"],
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("smoke", "full"), default="full")
    parser.add_argument("--output", default=None, help="optional JSON output path")
    args = parser.parse_args(argv)

    report = measure_frontier(args.mode)
    if args.output:
        with open(args.output, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.output}")

    failures = [gate for gate, ok in sorted(report["gates"].items()) if not ok]
    if failures:
        for gate in failures:
            print(f"frontier gate FAIL: {gate}", file=sys.stderr)
        return 1
    print("frontier gates: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
