"""Tracked performance harness: workloads end to end, plus hot kernels.

Runs the three paper workloads (SOR, Barnes-Hut, Water-Spatial) at bench
scale through four phases each — ``base`` (no profiling), ``r4``
(correlation tracking at rate 1/4, including TCM construction), ``full``
(full sampling) and ``telemetry`` (r4 with metrics + span tracing
attached, plus the deterministic metrics snapshot) — and the simulator's
hot kernels, then writes ``BENCH_perf.json``.  A separate ``scale``
phase runs the SOR weak-scaling ladder (8 → 128 simulated nodes, one
thread per node) under ``scalar`` (per-op oracle) and ``vector`` (bulk)
access replay — the latter both on a compiled program set reused across
DJVMs (``vector``) and on one compiled for the run (``vector_fresh``) —
recording wall/ops-per-second for each mode plus a byte-level checksum
of the simulated results: all three must produce identical checksums at
every rung.  This file is the perf
trajectory every later PR is measured against: ``make perf``
regenerates it and ``benchmarks/check_regression.py`` fails the build
when wall-time regresses against the committed baseline.

Methodology: every wall-time is the best of ``--repeats`` runs (default
3) with ``gc.collect()`` before each, so one-off allocator/GC noise does
not pollute the trajectory.  Simulated outputs are summarized into
determinism checksums (TCM digest, final thread clocks, protocol
counters) so a perf change that silently alters simulation results is
caught here too.

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py [--output PATH]
        [--repeats N]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np

from common import PAPER_SCALE, workload_factories
from repro.analysis import experiments as E
from repro.core.sampling import SamplingPolicy
from repro.core.tcm import build_tcm
from repro.heap.heap import GlobalObjectSpace
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel
from repro.sim.network import Network, RackTopology
from repro.workloads.sor import SORWorkload

N_THREADS = 8
N_NODES = 8

#: weak-scaling ladder for the ``scale`` phase: one SOR thread per node,
#: 256 grid rows per thread, rounds shrinking to keep each point a few
#: seconds.  (nodes, grid n, rounds).
SCALE_CONFIGS = [
    (8, 2_048, 8),
    (32, 8_192, 4),
    (64, 16_384, 2),
    (128, 32_768, 2),
]


def best_of(fn, repeats: int) -> tuple[float, object]:
    """Best wall time over ``repeats`` calls (gc-collected before each)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
            result = out
    return best, result


def median_of(fn, setup, repeats: int, warmups: int = 2) -> tuple[float, object]:
    """Median wall time over ``repeats`` calls after ``warmups`` discarded
    runs, with the collector paused around each timed region.  The scale
    phase uses medians (not best-of): its multi-second runs drift with
    allocator state, and the median is the honest central tendency the
    scalar-vs-vector speedups are computed from.  ``setup`` runs untimed
    before every call and its result is passed to ``fn``."""
    walls = []
    result = None
    for i in range(warmups + repeats):
        arg = setup()
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = fn(arg)
            elapsed = time.perf_counter() - t0
        finally:
            gc.enable()
        if i >= warmups:
            walls.append(elapsed)
    walls.sort()
    mid = len(walls) // 2
    if len(walls) % 2:
        median = walls[mid]
    else:
        median = (walls[mid - 1] + walls[mid]) / 2.0
    return median, result


# ---------------------------------------------------------------------------
# end-to-end workload phases
# ---------------------------------------------------------------------------


def measure_workloads(repeats: int) -> dict:
    out: dict[str, dict] = {}
    for name, factory in workload_factories(N_THREADS):
        phases: dict[str, dict] = {}

        def run_base():
            return E.run_baseline(factory, n_nodes=N_NODES)

        def run_rate(rate):
            run = E.run_with_correlation(
                factory, n_nodes=N_NODES, rate=rate, send_oals=True
            )
            tcm = run.suite.collector.tcm()
            return run, tcm

        wall, base = best_of(run_base, repeats)
        phases["base"] = {
            "wall_s": round(wall, 6),
            "ops": base.result.ops_executed,
            "ops_per_s": round(base.result.ops_executed / wall, 1),
        }

        wall, (run4, tcm4) = best_of(lambda: run_rate(4), repeats)
        phases["r4"] = {
            "wall_s": round(wall, 6),
            "ops": run4.result.ops_executed,
            "ops_per_s": round(run4.result.ops_executed / wall, 1),
        }

        wall, (runf, tcmf) = best_of(lambda: run_rate("full"), repeats)
        phases["full"] = {
            "wall_s": round(wall, 6),
            "ops": runf.result.ops_executed,
            "ops_per_s": round(runf.result.ops_executed / wall, 1),
        }

        def run_telemetry():
            run = E.run_with_correlation(
                factory, n_nodes=N_NODES, rate=4, send_oals=True, telemetry="full"
            )
            run.suite.collector.tcm()
            return run

        # The r4 phase again but with metrics + span tracing attached:
        # the wall delta against r4 tracks what observation costs, and
        # the snapshot (all simulated state) must be bit-stable — any
        # drift is a silent behavior change check_regression rejects.
        wall, runt = best_of(run_telemetry, repeats)
        phases["telemetry"] = {
            "wall_s": round(wall, 6),
            "ops": runt.result.ops_executed,
            "ops_per_s": round(runt.result.ops_executed / wall, 1),
            "snapshot": runt.djvm.telemetry.snapshot(),
        }

        # Determinism checksums: any hot-path change that alters the
        # simulation (not just its speed) shows up here.
        phases["checksum"] = {
            "base_final_clocks_ms": {
                str(k): v for k, v in sorted(base.result.thread_finish_ms.items())
            },
            "base_counters": dict(sorted(base.result.counters.items())),
            "r4_tcm_sha256": hashlib.sha256(tcm4.tobytes()).hexdigest(),
            "r4_logged": run4.suite.access_profiler.total_logged,
            "full_tcm_sha256": hashlib.sha256(tcmf.tobytes()).hexdigest(),
            "full_logged": runf.suite.access_profiler.total_logged,
        }
        out[name] = phases
        print(
            f"{name:14s} base {phases['base']['wall_s']:.4f}s  "
            f"r4 {phases['r4']['wall_s']:.4f}s  "
            f"full {phases['full']['wall_s']:.4f}s  "
            f"telemetry {phases['telemetry']['wall_s']:.4f}s",
            flush=True,
        )
    return out


# ---------------------------------------------------------------------------
# scale phase: scalar oracle vs vectorized access replay
# ---------------------------------------------------------------------------


def result_checksum(res) -> str:
    """Digest of everything the simulation produced: protocol counters,
    final thread clocks, op count, and per-kind network traffic.  Vector
    replay must reproduce the scalar oracle's digest byte for byte —
    check_regression fails hard otherwise."""
    h = hashlib.sha256()
    h.update(repr(sorted(res.counters.items())).encode())
    h.update(repr(sorted(res.thread_finish_ms.items())).encode())
    h.update(repr(res.ops_executed).encode())
    by_kind = sorted(res.traffic._by_kind.items(), key=lambda kv: str(kv[0]))
    h.update(repr([(str(k), v) for k, v in by_kind]).encode())
    h.update(repr(res.traffic.messages).encode())
    return h.hexdigest()


def _scale_point(nodes: int, n: int, rounds: int, repeats: int) -> dict:
    """One ladder rung: SOR at ``nodes`` simulated nodes, scalar vs
    vector replay.  ``scalar`` and ``vector`` share one compiled program
    set (object allocation is deterministic, so ids stay valid across
    rebuilds), so ``vector`` is the steady state of a reused program:
    every run hot, lanes and cost arrays already built.  ``vector_fresh``
    is what a single ``DJVM.run`` gets: a program set compiled for that
    run (outside the timed region), which pays run extraction and lane
    builds inside it."""
    scratch = DJVM(nodes)
    workload = SORWorkload(n=n, rounds=rounds, n_threads=nodes, seed=0)
    workload.build(scratch)

    def compile_set() -> dict:
        return {
            tid: P.compile_program(ops) for tid, ops in workload.programs().items()
        }

    compiled = compile_set()

    def run_mode(replay: str, programs: dict):
        djvm = DJVM(nodes, replay=replay)
        SORWorkload(n=n, rounds=rounds, n_threads=nodes, seed=0).build(djvm)
        return djvm.run(programs)

    point: dict[str, object] = {"nodes": nodes, "n": n, "rounds": rounds}
    for mode, replay, program_set, checksum in (
        ("scalar", "scalar", lambda: compiled, "checksum_scalar"),
        ("vector", "vector", lambda: compiled, "checksum_vector"),
        ("vector_fresh", "vector", compile_set, "checksum_fresh"),
    ):
        wall, res = median_of(partial(run_mode, replay), program_set, repeats)
        point[mode] = {
            "wall_s": round(wall, 6),
            "ops": res.ops_executed,
            "ops_per_s": round(res.ops_executed / wall, 1),
        }
        point[checksum] = result_checksum(res)
    scalar_wall = point["scalar"]["wall_s"]
    point["speedup"] = round(scalar_wall / point["vector"]["wall_s"], 3)
    point["speedup_fresh"] = round(scalar_wall / point["vector_fresh"]["wall_s"], 3)
    return point


def measure_scale(repeats: int, mode: str = "full") -> dict:
    """``full``: the whole ladder.  ``smoke`` (make check / CI): the two
    smallest rungs with one timed run each — still enough to hard-check
    scalar↔vector byte-identity, and config-compatible with the full
    baseline so checksum comparison stays exact."""
    configs = SCALE_CONFIGS if mode == "full" else SCALE_CONFIGS[:2]
    if mode == "smoke":
        repeats = 1
    out = {}
    for nodes, n, rounds in configs:
        point = _scale_point(nodes, n, rounds, repeats)
        out[f"sor_{nodes}"] = point
        print(
            f"scale sor nodes={nodes:3d}  scalar {point['scalar']['wall_s']:.4f}s  "
            f"vector {point['vector']['wall_s']:.4f}s ({point['speedup']:.2f}x)  "
            f"fresh {point['vector_fresh']['wall_s']:.4f}s "
            f"({point['speedup_fresh']:.2f}x)  "
            f"identical={point['checksum_scalar'] == point['checksum_vector'] == point['checksum_fresh']}",
            flush=True,
        )
    return out


# ---------------------------------------------------------------------------
# hot kernels (mirrors bench_kernels.py without the pytest-benchmark dep)
# ---------------------------------------------------------------------------


def kernel_tcm_build(repeats: int) -> dict:
    rng = np.random.default_rng(0)
    entries = [
        (int(t), int(o), 64.0)
        for t, o in zip(rng.integers(0, 16, 50_000), rng.integers(0, 4_000, 50_000))
    ]
    wall, tcm = best_of(lambda: build_tcm(entries, 16), repeats)
    assert tcm.shape == (16, 16) and tcm.sum() > 0
    return {"wall_s": round(wall, 6), "entries_per_s": round(len(entries) / wall, 1)}


def kernel_sampling_decision(repeats: int) -> dict:
    gos = GlobalObjectSpace()
    cls = gos.registry.define("Obj", 96)
    arr_cls = gos.registry.define("Arr", is_array=True, element_size=8)
    objs = [gos.allocate(cls, 0) for _ in range(2_000)]
    objs += [gos.allocate(arr_cls, 0, length=100) for _ in range(500)]
    policy = SamplingPolicy()
    policy.set_rate(cls, 4)
    policy.set_rate(arr_cls, 4)
    wall, count = best_of(
        lambda: sum(1 for o in objs if policy.is_sampled(o)), repeats
    )
    assert 0 < count < len(objs)
    return {"wall_s": round(wall, 6), "decisions_per_s": round(len(objs) / wall, 1)}


def kernel_hlrc_access(repeats: int) -> dict:
    n = 20_000
    djvm = DJVM(n_nodes=1, costs=CostModel.fast_test())
    cls = djvm.define_class("Obj", 64)
    obj = djvm.allocate(cls, 0)
    thread = djvm.spawn_thread(0)
    djvm.hlrc.open_interval(thread)
    access = djvm.hlrc.access
    obj_id = obj.obj_id

    def run():
        for _ in range(n):
            access(thread, obj_id)

    wall, _ = best_of(run, repeats)
    return {"wall_s": round(wall, 6), "accesses_per_s": round(n / wall, 1)}


def kernel_interpreter_throughput(repeats: int) -> dict:
    def run():
        djvm = DJVM(n_nodes=1, costs=CostModel.fast_test())
        cls = djvm.define_class("Obj", 64)
        objs = [djvm.allocate(cls, 0) for _ in range(64)]
        djvm.spawn_thread(0)
        ops = [P.call("main", 2)]
        for _ in range(50):
            ops.extend(P.read(o.obj_id) for o in objs)
        ops.append(P.ret())
        return djvm.run({0: ops}).ops_executed

    wall, ops = best_of(run, repeats)
    assert ops == 50 * 64 + 2
    return {"wall_s": round(wall, 6), "ops_per_s": round(ops / wall, 1)}


def kernel_network_topology(repeats: int) -> dict:
    """Network construction plus latency probes at high fan-out: per-pair
    latency is an O(1) formula, so a 256-node fabric must cost the same
    to build as an 8-node one (16 sources x 255 destinations probed)."""
    def run():
        net = Network(topology=RackTopology(rack_size=8))
        total = 0
        for src in range(0, 256, 17):
            for dst in range(256):
                if dst != src:
                    total += net.latency_between_ns(src, dst)
        return total

    wall, total = best_of(run, repeats)
    assert total > 0
    probes = 16 * 255
    return {"wall_s": round(wall, 6), "probes_per_s": round(probes / wall, 1)}


def measure_kernels(repeats: int) -> dict:
    kernels = {
        "tcm_build_50k": kernel_tcm_build,
        "sampling_decision_2500": kernel_sampling_decision,
        "hlrc_access_20k": kernel_hlrc_access,
        "interpreter_3202_ops": kernel_interpreter_throughput,
        "network_topology_256n": kernel_network_topology,
    }
    out = {}
    for name, fn in kernels.items():
        out[name] = fn(repeats)
        print(f"kernel {name:24s} {out[name]['wall_s']:.4f}s", flush=True)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(Path(__file__).parent.parent / "BENCH_perf.json"),
        help="where to write the JSON report (default: repo-root BENCH_perf.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="runs per measurement (best-of)"
    )
    parser.add_argument(
        "--scale",
        choices=("off", "smoke", "full"),
        default="full",
        help="scale-phase depth: full ladder, smoke (2 rungs, 1 repeat), or off",
    )
    parser.add_argument(
        "--frontier",
        choices=("off", "smoke", "full"),
        default="full",
        help=(
            "sampling-backend frontier depth: all backends x workloads, "
            "smoke (SOR, prime_gap + hash, 1 repeat), or off"
        ),
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    report = {
        "schema": "repro-perf/1",
        "config": {
            "n_threads": N_THREADS,
            "n_nodes": N_NODES,
            "repeats": args.repeats,
            "paper_scale": PAPER_SCALE,
            "python": sys.version.split()[0],
        },
        "workloads": measure_workloads(args.repeats),
        "kernels": measure_kernels(args.repeats),
    }
    if args.scale != "off":
        report["scale"] = measure_scale(max(1, args.repeats - 2), args.scale)
    if args.frontier != "off":
        from frontier import measure_frontier

        report["frontier"] = measure_frontier(max(1, args.repeats - 2), args.frontier)
    with open(args.output, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
