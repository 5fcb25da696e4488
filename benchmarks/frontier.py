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
  (a fresh policy per timed call): ``SamplingPolicy.decide_batch`` over
  the first 4096 object ids of the space, read off its columns — the
  lane a run's first touches of classes off gap 1 are decided through
  (``SamplingPolicy.first_touches``) and a rate replay decides a log's
  distinct objects through (``resampled_tcm``).  Prime-gap loops over
  its Python kernel; hash takes its numpy lane.
* ``decide_ratio`` — a stateless backend's cost over prime-gap's: the
  two are timed in alternation (prime-gap, backend, prime-gap, ...,
  :data:`DECIDE_SAMPLES` calls each), and this is the median of the
  ratios of the calls paired that way, so a slow spell of the host
  weighs on both sides of a pair instead of on one backend.
  The one host-time figure here, and the one host-time *gate* in
  ``make check`` — not a number recorded on another day or machine.
  What a backend costs a whole run is a ``benchmarks/e2e`` question.

Plus the stateless-bias diagnostics: ``dead_zone_report`` over each
workload's live heap, and a synthetic small-working-set probe (a class
whose population x inclusion probability is < 1) that the hash backend
MUST flag — the PAGE_HASH failure mode.

Hard gates (``main`` exit code):

* the prime-gap backend's replayed TCM is byte-identical to the default
  policy's (the refactor moved code, not behavior),
* at least one stateless backend reaches E_ABS within 2x of prime-gap
  while deciding cheaper per access (``decide_ratio`` below 1),
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

#: timed calls per backend behind a ``decide_ns`` figure.  One call is
#: ~4 ms and the cheaper-than-prime-gap gate compares two backends, so a
#: single sample flips it on scheduler noise; the median of 7 pairs does
#: not.
DECIDE_SAMPLES = 7


def _decide_walls(backend_names: tuple[str, ...], gos) -> tuple[int, list[list[float]]]:
    """Per-decision cost through the batch lane: a fresh policy per
    timed call deciding the space's first 4096 ids once, by the
    backend's kernel (or the hash backend's numpy lane) — what a
    first-touch access costs.  The backends take turns, one call each
    per round, for :data:`DECIDE_SAMPLES` rounds.  Returns the number of
    ids and each backend's walls (seconds), in round order."""
    ids = list(range(min(len(gos), 4096)))
    if not ids:
        return 0, [[] for _ in backend_names]

    def call(name: str):
        policy = SamplingPolicy(backend=resolve_backend(name))
        for jclass in gos.registry:
            policy.set_rate(jclass, RATE)
        return policy.decide_batch(ids, gos)

    # Discarded calls: the backends' imports and first-call warm-up are
    # paid once per process, not per first-touch access.
    for name in backend_names:
        assert len(call(name)) == len(ids)
    walls: list[list[float]] = [[] for _ in backend_names]
    for _ in range(DECIDE_SAMPLES):
        for k, name in enumerate(backend_names):
            gc.collect()
            t0 = time.perf_counter()
            call(name)
            walls[k].append(time.perf_counter() - t0)
    return len(ids), walls


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
            if backend_name == "prime_gap":
                n_ids, (walls,) = _decide_walls(("prime_gap",), gos)
            else:
                n_ids, (prime_walls, walls) = _decide_walls(("prime_gap", backend_name), gos)
                ratios = [w / p for p, w in zip(prime_walls, walls)]
                row["decide_ratio"] = round(statistics.median(ratios), 4) if ratios else 0.0
            row["decide_ns"] = round(statistics.median(walls) * 1e9 / n_ids, 1) if n_ids else 0.0
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
                f"e_abs {row['e_abs']:.4f}  decide {row['decide_ns']:8.1f} ns"
                + (f"  x{row['decide_ratio']:.3f} prime-gap" if "decide_ratio" in row else ""),
                flush=True,
            )

        prime = rows["prime_gap"]
        gate_2x[name] = any(
            rows[b]["e_abs"] <= 2.0 * prime["e_abs"] + EABS_SLACK
            and rows[b]["decide_ratio"] < 1.0
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
