"""The determinism ledger: ``BENCH_perf.json`` pins what the simulator
computes, never how long the host took.

Every run is recorded as its :func:`repro.runtime.djvm.run_fingerprint`
— the repo's one definition of "byte-identical" — with the tables folded
to short digests, so a mismatch names the component that moved:

* ``workloads``: SOR, Barnes-Hut, Water-Spatial at bench scale, each as
  ``base`` (no profiler), ``r4`` / ``full`` (correlation tracking at
  rate 4 / full sampling, plus the accesses logged) and ``telemetry``
  (r4 with a span tracer attached, plus the metrics snapshot).
* ``scale``: the SOR weak-scaling ladder.  Each rung runs four times —
  the ``scalar`` per-op oracle, ``vector`` bulk replay, ``vector`` again
  on the now-warm reused program set, ``vector_fresh`` on a program set
  compiled for that run — and all four must leave one fingerprint;
  that is checked on every invocation, ``--write`` included.

Each run happens once and nothing a second machine would not reproduce
is recorded, so the check is equality: every key this invocation
produced must be in the committed file with the same value.  ``--mode
full`` (the default; ``make check`` / CI, about 5 s on a 2-vCPU host)
runs every rung and must match the file key for key; ``--mode smoke``
stops after the two smallest rungs and is checked as a subset.  Host
time is measured in one place: ``benchmarks/e2e`` (``run.py``,
``compare.py``).

Usage::

    PYTHONPATH=src python benchmarks/ledger.py [--mode smoke|full] [--write]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from common import PAPER_SCALE, workload_factories
from repro.analysis import experiments as E
from repro.obs import SpanTracer, Telemetry
from repro.runtime import program as P
from repro.runtime.djvm import DJVM, run_fingerprint
from repro.workloads.sor import SORWorkload

#: the committed ledger (tests point this at a scratch copy).
LEDGER = Path(__file__).parent.parent / "BENCH_perf.json"

N_THREADS = 8
N_NODES = 8

#: weak-scaling ladder: one SOR thread per node, 256 grid rows per
#: thread.  (nodes, grid n, rounds).
SCALE_CONFIGS = [(8, 2_048, 8), (32, 8_192, 4), (64, 16_384, 2), (128, 32_768, 2)]


def fingerprint(djvm, result, suite=None) -> dict:
    """``run_fingerprint`` in JSON form: scalars and digests as they
    are, ``counters`` as a dict (a moved counter is named), every other
    table folded to a 16-hex digest."""
    out = {}
    for name, value in run_fingerprint(djvm, result, suite).items():
        if name == "counters":
            value = dict(value)
        elif isinstance(value, tuple):
            value = hashlib.sha256(repr(value).encode()).hexdigest()[:16]
        out[name] = value
    return out


def workload_section(factory) -> dict:
    """The four phases of one workload."""
    phases = {}
    base = E.run_baseline(factory, n_nodes=N_NODES)
    phases["base"] = fingerprint(base.djvm, base.result)
    profiled = (("r4", 4, False), ("full", "full", False), ("telemetry", 4, True))
    for phase, rate, traced in profiled:
        observers = (SpanTracer(),) if traced else ()
        run = E.run_with_correlation(
            factory, n_nodes=N_NODES, rate=rate, send_oals=True, observers=observers
        )
        phases[phase] = fingerprint(run.djvm, run.result, run.suite)
        phases[phase]["total_logged"] = run.suite.access_profiler.total_logged
        if traced:
            phases[phase]["snapshot"] = Telemetry(run.djvm).snapshot()
    return phases


def scale_rung(nodes: int, n: int, rounds: int) -> tuple[dict, list[str]]:
    """One ladder rung: the scalar oracle's fingerprint, and a line per
    component on which one of the three vector runs departs from it.  ``scalar`` and both
    ``vector`` runs share one compiled program set (allocation is
    deterministic, so object ids stay valid across rebuilds)."""
    def build(djvm) -> SORWorkload:
        workload = SORWorkload(n=n, rounds=rounds, n_threads=nodes, seed=0)
        workload.build(djvm)
        return workload

    def compile_set() -> dict:
        programs = build(DJVM(nodes)).programs()
        return {tid: P.compile_program(ops) for tid, ops in programs.items()}

    reused = compile_set()
    oracle = None
    problems = []
    for mode, replay, programs in (
        ("scalar", "scalar", reused),
        ("vector", "vector", reused),
        ("vector_reused", "vector", reused),
        ("vector_fresh", "vector", compile_set()),
    ):
        djvm = DJVM(nodes, replay=replay)
        build(djvm)
        got = fingerprint(djvm, djvm.run(programs))
        if oracle is None:
            oracle = got
        problems += [
            f"scale/sor_{nodes}/{mode}/{name}: differs from the scalar oracle"
            for name in got
            if got[name] != oracle[name]
        ]
    return {"nodes": nodes, "n": n, "rounds": rounds, "fingerprint": oracle}, problems


def generate(mode: str) -> tuple[dict, list[str]]:
    """Run everything ``mode`` covers; returns the ledger tree and the
    scalar-vs-vector identity failures found on the way."""
    problems: list[str] = []
    ledger = {
        "schema": "repro-ledger/1",
        "config": {"n_threads": N_THREADS, "n_nodes": N_NODES, "paper_scale": PAPER_SCALE},
        "workloads": {},
        "scale": {},
    }
    for name, factory in workload_factories(N_THREADS):
        ledger["workloads"][name] = workload_section(factory)
        print(f"ledger: workloads/{name}", flush=True)
    rungs = SCALE_CONFIGS if mode == "full" else SCALE_CONFIGS[:2]
    for nodes, n, rounds in rungs:
        ledger["scale"][f"sor_{nodes}"], departures = scale_rung(nodes, n, rounds)
        problems += departures
        print(f"ledger: scale/sor_{nodes}", flush=True)
    return ledger, problems


def diff(produced, committed, exact: bool, path: str = "") -> list[str]:
    """Tree diff, one line per differing leaf, named by its path.  A
    produced key the committed tree lacks is always a failure; the
    reverse only when ``exact`` (full mode)."""
    if not (isinstance(produced, dict) and isinstance(committed, dict)):
        return [] if produced == committed else [f"{path}: {committed!r} -> {produced!r}"]
    lines = []
    for key in sorted(set(produced) | set(committed)):
        sub = f"{path}/{key}" if path else str(key)
        if key not in committed:
            lines.append(f"{sub}: not in the committed ledger (regenerate with --write)")
        elif key not in produced:
            if exact:
                lines.append(f"{sub}: in the committed ledger but not produced by this tree")
        else:
            lines += diff(produced[key], committed[key], exact, sub)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("smoke", "full"), default="full")
    parser.add_argument("--write", action="store_true", help="rewrite BENCH_perf.json")
    args = parser.parse_args(argv)
    if args.write and args.mode != "full":
        parser.error("--write needs --mode full: the committed ledger is the whole tree")

    ledger, problems = generate(args.mode)
    if not args.write:
        try:
            committed = json.loads(LEDGER.read_text())
        except (OSError, ValueError) as exc:
            print(f"ledger: cannot read {LEDGER}: {exc}", file=sys.stderr)
            return 2
        problems += diff(ledger, committed, exact=args.mode == "full")
    if problems:
        for line in problems:
            print(f"ledger FAIL: {line}", file=sys.stderr)
        return 1
    if args.write:
        LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
        print(f"ledger: wrote {LEDGER}")
    else:
        print(f"ledger: OK ({args.mode}: every produced key equals {LEDGER.name})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
