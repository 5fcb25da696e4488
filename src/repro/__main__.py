"""Command-line interface: ``python -m repro``.

Subcommands:

* ``demo`` — the quickstart in one command: run a workload with the
  correlation profiler and print the TCM heatmap and cost summary.
* ``run`` — run one of the paper's workloads with chosen profilers and
  print the paper-style summary, how the vector engine routed access
  runs (``replay: bulk … runs, lean … runs, faults batched …, first
  touches …, stops …, timer fires …, home resident …``), then
  the host's time by stage and what the cyclic collector cost the run
  stage (``host: build … s,
  programs+compile … s, run … s, gc N collections (M full) … s``).
* ``experiments`` — list the reproduced tables/figures and the pytest
  commands that regenerate them.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from repro._version import __version__

WORKLOADS = ("sor", "barnes-hut", "water-spatial", "group-sharing")


def make_workload(name: str, n_threads: int, seed: int):
    """Construct a CLI workload by name at demo scale."""
    from repro.workloads import (
        BarnesHutWorkload,
        GroupSharingWorkload,
        SORWorkload,
        WaterSpatialWorkload,
    )

    if name == "sor":
        return SORWorkload(n=1024, rounds=4, n_threads=n_threads, seed=seed)
    if name == "barnes-hut":
        return BarnesHutWorkload(n_bodies=1024, rounds=3, n_threads=n_threads, seed=seed)
    if name == "water-spatial":
        return WaterSpatialWorkload(n_molecules=384, rounds=3, n_threads=n_threads, seed=seed)
    if name == "group-sharing":
        return GroupSharingWorkload(n_threads=n_threads, group_size=2, rounds=4, seed=seed)
    raise ValueError(f"unknown workload {name!r}; pick one of {WORKLOADS}")


class GcProbe:
    """Counts the cyclic collector's passes, and their wall time, while
    active.  Read-only: a ``gc.callbacks`` entry runs only when the
    collector does, and changes nothing about when that is."""

    def __init__(self) -> None:
        self.collections = 0
        self.full = 0
        self.seconds = 0.0
        self._began = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._began
            self.collections += 1
            self.full += info["generation"] == 2

    def __enter__(self) -> "GcProbe":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: execute one workload with chosen profilers."""
    from repro import DJVM, ProfilerSuite
    from repro.analysis.heatmap import render_heatmap
    from repro.runtime.program import compile_program

    clock = time.perf_counter
    t0 = clock()
    workload = make_workload(args.workload, args.threads, args.seed)
    djvm = DJVM(n_nodes=args.nodes)
    workload.build(djvm)
    t1 = clock()
    programs = {tid: compile_program(ops) for tid, ops in workload.programs().items()}
    t2 = clock()
    suite = ProfilerSuite(
        djvm,
        correlation=not args.no_correlation,
        stack=args.sticky,
        footprint=args.sticky,
    )
    rate: float | str = "full" if args.rate == "full" else float(args.rate)
    suite.set_rate_all(rate)
    spec = workload.spec()
    print(
        f"{spec.name} ({spec.data_set}, {spec.rounds} rounds) on "
        f"{args.nodes} nodes / {args.threads} threads, sampling {args.rate}X"
    )
    t3 = clock()
    with GcProbe() as collector:
        result = djvm.run(programs)
    t4 = clock()
    print(result.summary())
    routing = djvm.replay_routing
    if routing:
        print(
            f"replay: bulk {routing['bulk']} runs, lean {routing['lean']} runs, "
            f"faults batched {routing['faults_batched']}, "
            f"first touches {routing['first_touches']}, "
            f"stops {routing['stops']}, timer fires {routing['timer_fires']}, "
            f"home resident {routing['home_resident']}"
        )
    # Where the host's time went, by stage (the simulated times are above).
    print(
        f"host: build {t1 - t0:.2f} s, programs+compile {t2 - t1:.2f} s, "
        f"run {t4 - t3:.2f} s, gc {collector.collections} collections "
        f"({collector.full} full) {collector.seconds:.2f} s"
    )
    if not args.no_correlation:
        print()
        print(render_heatmap(suite.tcm(), width=min(args.threads, 32),
                             title="thread correlation map:"))
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """``repro demo``: the Barnes-Hut quickstart in one command."""
    args.workload = "barnes-hut"
    args.no_correlation = False
    args.sticky = False
    args.rate = "4"
    return cmd_run(args)


def cmd_experiments(_args: argparse.Namespace) -> int:
    """``repro experiments``: list the reproduced tables/figures."""
    rows = [
        ("Fig. 1", "inherent vs induced correlation maps", "bench_fig1_false_sharing.py"),
        ("Table I", "benchmark characteristics", "bench_table1_characteristics.py"),
        ("Table II", "OAL collection overhead", "bench_table2_oal_collection.py"),
        ("Table III", "tracking overheads (exec/volume/TCM)", "bench_table3_tracking_overheads.py"),
        ("Fig. 9", "sampling accuracy curves", "bench_fig9_accuracy.py"),
        ("Table IV", "sticky-set footprint accuracy", "bench_table4_ss_accuracy.py"),
        ("Table V", "sticky-set profiling overhead", "bench_table5_ss_overhead.py"),
        ("ablation", "prime vs composite gaps", "bench_ablation_prime_gaps.py"),
        ("ablation", "array amortization vs naive", "bench_ablation_array_amortization.py"),
        ("ablation", "ABS vs EUC controller signal", "bench_ablation_distance_metric.py"),
        ("ablation", "landmark-guided resolution", "bench_ablation_landmarks.py"),
        ("extension", "distributed TCM computation", "bench_ext_distributed_tcm.py"),
        ("extension", "online load balancing + home migration", "bench_ext_load_balancing.py"),
        ("extension", "connectivity prefetching of fault replies", "bench_ext_prefetch.py"),
        ("extension", "scale-out and the TCM daemon's relative cost", "bench_ext_scalability.py"),
    ]
    width = max(len(r[0]) for r in rows)
    for exp, desc, bench in rows:
        print(f"{exp:<{width}}  {desc:<42} pytest benchmarks/{bench} --benchmark-only")
    print("\nall at once:  pytest benchmarks/ --benchmark-only")
    print("paper scale:  REPRO_PAPER_SCALE=1 pytest benchmarks/ --benchmark-only")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Adaptive Sampling-Based Profiling "
        "Techniques for Optimizing the Distributed JVM Runtime' (IPDPS 2010).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="one-command Barnes-Hut profiling demo")
    demo.add_argument("--nodes", type=int, default=8)
    demo.add_argument("--threads", type=int, default=16)
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=cmd_demo)

    run = sub.add_parser("run", help="run a workload with chosen profilers")
    run.add_argument("workload", choices=WORKLOADS)
    run.add_argument("--nodes", type=int, default=8)
    run.add_argument("--threads", type=int, default=16)
    run.add_argument("--rate", default="4", help="sampling rate nX, or 'full'")
    run.add_argument("--sticky", action="store_true",
                     help="enable stack sampling + sticky-set footprinting")
    run.add_argument("--no-correlation", action="store_true",
                     help="disable correlation tracking")
    run.add_argument("--seed", type=int, default=0)
    run.set_defaults(func=cmd_run)

    exp = sub.add_parser("experiments", help="list reproduced tables/figures")
    exp.set_defaults(func=cmd_experiments)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
