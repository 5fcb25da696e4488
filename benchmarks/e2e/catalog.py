"""What the end-to-end benchmark runs and what it reports.

One table of workloads (pinned sizes — nothing is imported from
``benchmarks/common.py``) and one table of metrics.  ``BENCHMARK.json`` at
the repository root repeats the workload names, the metric names and units
and adds the bounds; ``test_e2e_smoke.py`` checks the two stay in step.  Why
each workload exists and how each metric is defined is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

#: simulated cluster: one thread per node, block placement.
N_NODES = 8
N_THREADS = 8

#: timed iterations per workload (after one discarded warm-up).  Fixed, so
#: every median is over the same count; ``--seconds`` can only add to it.
TIMED_ITERATIONS = 5
SMOKE_ITERATIONS = 2

#: the adaptive controller of ``ws_adaptive_sticky``.
ADAPTIVE_LADDER = (1, 2, 4, 8, 16, 32)
ADAPTIVE_THRESHOLD = 0.05
ADAPTIVE_WINDOW_BATCHES = 32


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: a program, its size and what profiles it."""

    name: str
    #: workload class in ``repro.workloads``.
    program: str
    #: constructor sizes (``n_threads`` and ``seed`` are added by the harness).
    sizes: dict
    #: the same program small enough for the < 30 s smoke test.
    smoke_sizes: dict
    #: None (no profiler), "full" (correlation tracking, full sampling, OALs
    #: shipped) or "adaptive" (correlation + stack + footprint under the
    #: adaptive rate controller).
    profile: str | None


_BH = {"n_bodies": 4096, "rounds": 5}
_BH_SMOKE = {"n_bodies": 256, "rounds": 2}

WORKLOADS: tuple[WorkloadSpec, ...] = (
    WorkloadSpec("sor_base", "SORWorkload", {"n": 8192, "rounds": 60}, {"n": 256, "rounds": 4}, None),
    WorkloadSpec("bh_base", "BarnesHutWorkload", _BH, _BH_SMOKE, None),
    WorkloadSpec("bh_track_full", "BarnesHutWorkload", _BH, _BH_SMOKE, "full"),
    WorkloadSpec(
        "ws_adaptive_sticky",
        "WaterSpatialWorkload",
        {"n_molecules": 2048, "rounds": 10, "grid": 6},
        {"n_molecules": 192, "rounds": 10, "grid": 3},
        "adaptive",
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    """One reported number."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: "host" (wall clock / memory of the simulator process) or "simulated"
    #: (the modelled DJVM; repeats bit-for-bit at a fixed seed).
    clock: str


END_TO_END: tuple[Metric, ...] = (
    Metric("run_wall_s", "s", "lower", "host"),
    Metric("setup_s", "s", "lower", "host"),
    Metric("peak_rss_mb", "MiB", "lower", "host"),
    # A distinct unit, so simulated milliseconds are never read as host time.
    Metric("sim_exec_ms", "sim_ms", "lower", "simulated"),
    Metric("sim_slowdown", "ratio", "lower", "simulated"),
    Metric("tcm_accuracy_abs", "ratio", "higher", "simulated"),
)

#: (name, unit, better).  Source of each is in README.md: ``*.calls`` and
#: ``*.self_s`` come from the traced iteration, everything else from the
#: untraced iteration of the same child.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("workloads.build_s", "s", "lower"),
    ("runtime.program.compile_s", "s", "lower"),
    ("core.profiler.attach_s", "s", "lower"),
    ("heap.objects", "count", "lower"),
    ("heap.gos_mb", "MiB", "lower"),
    ("runtime.program.ops", "count", "lower"),
    ("runtime.djvm.run_s", "s", "lower"),
    ("runtime.ops_per_s", "1/s", "higher"),
    ("runtime.interpreter.run.self_s", "s", "lower"),
    ("runtime.vector.execute.calls", "count", "higher"),
    ("runtime.vector.execute.self_s", "s", "lower"),
    ("runtime.vector.bypass_share", "ratio", "higher"),
    ("dsm.hlrc.access.calls", "count", "lower"),
    ("dsm.hlrc.access.self_s", "s", "lower"),
    ("dsm.hlrc.faults", "count", "lower"),
    ("dsm.hlrc.fault_share", "ratio", "lower"),
    ("sim.network.send.calls", "count", "lower"),
    ("sim.network.send.self_s", "s", "lower"),
    ("sim.network.messages", "count", "lower"),
    ("sim.network.gos_kb", "KiB", "lower"),
    ("sim.costs.network_wait_ms", "sim_ms", "lower"),
    ("dsm.hlrc.interval.calls", "count", "lower"),
    ("dsm.hlrc.interval.self_s", "s", "lower"),
    ("dsm.hlrc.sync.calls", "count", "lower"),
    ("dsm.hlrc.sync.self_s", "s", "lower"),
    ("dsm.hlrc.diffs", "count", "lower"),
    ("dsm.hlrc.invalidations", "count", "lower"),
    ("dsm.hlrc.notices", "count", "lower"),
    ("dsm.hlrc.intervals", "count", "lower"),
    ("sim.events.calls", "count", "lower"),
    ("sim.events.self_s", "s", "lower"),
    ("core.access_profiler.on_access.calls", "count", "lower"),
    ("core.access_profiler.on_access.self_s", "s", "lower"),
    ("core.access_profiler.flush.calls", "count", "lower"),
    ("core.access_profiler.flush.self_s", "s", "lower"),
    ("core.access_profiler.logged", "count", "lower"),
    ("core.access_profiler.logged_share", "ratio", "lower"),
    ("core.collector.deliver.calls", "count", "lower"),
    ("core.collector.deliver.self_s", "s", "lower"),
    ("core.collector.entries", "count", "lower"),
    ("core.tcm.build.calls", "count", "lower"),
    ("core.tcm.build.self_s", "s", "lower"),
    ("core.collector.tcm_s", "s", "lower"),
    ("sim.network.oal_kb", "KiB", "lower"),
    ("sim.network.piggybacked", "count", "higher"),
    ("sim.costs.profiling_cpu_ms", "sim_ms", "lower"),
    ("core.sampling.decide.calls", "count", "lower"),
    ("core.sampling.decide.self_s", "s", "lower"),
    ("core.sampling.rate_changes", "count", "lower"),
    ("core.adaptive.observe.calls", "count", "lower"),
    ("core.adaptive.observe.self_s", "s", "lower"),
    ("core.adaptive.windows", "count", "lower"),
    ("core.adaptive.final_rate", "ratio", "lower"),
    ("core.footprint.on_access.calls", "count", "lower"),
    ("core.footprint.on_access.self_s", "s", "lower"),
    ("core.stack_sampler.fire.calls", "count", "lower"),
    ("core.stack_sampler.fire.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.self_coverage", "ratio", "higher"),
)
