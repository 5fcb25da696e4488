"""What one child interpreter does: run one workload and measure it.

A child runs untimed reference runs, one discarded warm-up iteration and
then the timed iterations (``measure_untraced``), or one untraced and one
traced iteration (``measure_traced``).  An iteration is a fresh workload on
a fresh ``DJVM`` — a DJVM runs once — with ``gc.collect()`` before it and
the collector left enabled.

The simulator is driven only through its default public surface; the seed
reaches nothing but the workload constructors.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from catalog import (
    ADAPTIVE_LADDER,
    ADAPTIVE_THRESHOLD,
    ADAPTIVE_WINDOW_BATCHES,
    N_NODES,
    N_THREADS,
    PER_LAYER,
    WorkloadSpec,
)
from tracer import LAYERS, LayerTracer

import repro.workloads
from repro.analysis import experiments
from repro.core.accuracy import accuracy
from repro.core.adaptive import AdaptiveRateController
from repro.core.profiler import ProfilerSuite
from repro.runtime import program as P
from repro.runtime.djvm import DJVM

ROOT_SPAN = "bench.run"


def make_workload(spec: WorkloadSpec, sizes: dict, seed: int):
    cls = getattr(repro.workloads, spec.program)
    return cls(n_threads=N_THREADS, seed=seed, **sizes)


@dataclass
class Iteration:
    """Everything one iteration leaves behind (no simulator objects)."""

    stages: dict[str, float]
    values: dict[str, float]
    checksum: str
    checksum_parts: dict
    sim_exec_ms: float
    final_rate: float | None
    tcm_problem: str | None

    @property
    def setup_s(self) -> float:
        return self.stages["build_s"] + self.stages["compile_s"] + self.stages["attach_s"]

    @property
    def run_wall_s(self) -> float:
        return self.stages["run_s"] + self.stages["tcm_s"]


def _attach(profile: str | None, djvm: DJVM):
    if profile is None:
        return None, None
    if profile == "full":
        suite = ProfilerSuite(djvm, correlation=True, send_oals=True)
        suite.set_rate_all("full")
        return suite, None
    if profile == "adaptive":
        suite = ProfilerSuite(
            djvm,
            correlation=True,
            stack=True,
            footprint=True,
            window_batches=ADAPTIVE_WINDOW_BATCHES,
        )
        suite.set_rate_all(ADAPTIVE_LADDER[0])
        controller = AdaptiveRateController(
            threshold=ADAPTIVE_THRESHOLD, metric="abs", ladder=ADAPTIVE_LADDER
        )
        suite.attach_controller(controller)
        return suite, controller
    raise ValueError(f"unknown profile {profile!r}")


def _tcm_problem(tcm: np.ndarray) -> str | None:
    if not np.isfinite(tcm).all():
        return "not finite"
    if not np.array_equal(tcm, tcm.T):
        return "not symmetric"
    if (tcm < 0).any():
        return "negative entry"
    if not tcm.any():
        return "all zero"
    return None


def run_iteration(
    spec: WorkloadSpec,
    sizes: dict,
    seed: int,
    *,
    profile: str | None,
    tracer: LayerTracer | None = None,
) -> Iteration:
    """Build, run and digest one fresh workload + DJVM."""
    gc.collect()
    clock = time.perf_counter
    t0 = clock()
    workload = make_workload(spec, sizes, seed)
    djvm = DJVM(N_NODES)
    workload.build(djvm, placement="block")
    t1 = clock()
    programs = {tid: P.compile_program(ops) for tid, ops in workload.programs().items()}
    t2 = clock()
    suite, controller = _attach(profile, djvm)
    t3 = clock()
    tcm = None
    if tracer is None:
        result = djvm.run(programs)
        t4 = clock()
        if suite is not None:
            tcm = suite.tcm()
        t5 = clock()
    else:
        with tracer.root(ROOT_SPAN):
            result = djvm.run(programs)
            t4 = clock()
            if suite is not None:
                tcm = suite.tcm()
        t5 = clock()

    stages = {
        "build_s": t1 - t0,
        "compile_s": t2 - t1,
        "attach_s": t3 - t2,
        "run_s": t4 - t3,
        "tcm_s": t5 - t4,
    }
    counters = result.counters
    traffic = result.traffic
    cpu = result.total_cpu
    access_ops = sum(
        prog.codes.count(bytes([P.OP_READ])) + prog.codes.count(bytes([P.OP_WRITE]))
        for prog in programs.values()
    )
    values = {
        "heap.objects": len(djvm.gos),
        "heap.gos_mb": djvm.gos.total_bytes() / 2**20,
        "runtime.program.ops": sum(len(prog) for prog in programs.values()),
        "runtime.program.access_ops": access_ops,
        "runtime.ops_executed": result.ops_executed,
        "dsm.hlrc.faults": counters["faults"],
        "dsm.hlrc.fault_share": counters["faults"] / access_ops,
        "dsm.hlrc.diffs": counters["diffs"],
        "dsm.hlrc.invalidations": counters["invalidations"],
        "dsm.hlrc.notices": counters["notices"],
        "dsm.hlrc.intervals": counters["intervals"],
        "sim.network.messages": traffic.messages,
        "sim.network.piggybacked": traffic.piggybacked_messages,
        "sim.network.gos_kb": traffic.gos_bytes / 1024,
        "sim.network.oal_kb": traffic.oal_bytes / 1024,
        "sim.costs.network_wait_ms": cpu.network_wait_ns / 1e6,
        "sim.costs.profiling_cpu_ms": cpu.profiling_ns / 1e6,
    }
    if suite is not None:
        values["core.collector.entries"] = suite.collector.entries_received
        values["core.adaptive.windows"] = len(suite.collector.window_tcms)
        values["core.sampling.rate_changes"] = suite.policy.rate_changes
        if suite.access_profiler is not None:
            values["core.access_profiler.logged"] = suite.access_profiler.total_logged
    final_rate = None if controller is None else float(controller.rate)
    if final_rate is not None:
        values["core.adaptive.final_rate"] = final_rate

    parts = {
        "counters": counters,
        "ops": result.ops_executed,
        "sim_exec_ms": repr(result.execution_time_ms),
        "thread_finish_ms": {str(t): repr(ms) for t, ms in sorted(result.thread_finish_ms.items())},
        "bytes_by_kind": {kind.value: n for kind, n in traffic.bytes_by_kind.items()},
        "tcm_sha256": None if tcm is None else hashlib.sha256(tcm.tobytes()).hexdigest(),
    }
    checksum = hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()
    return Iteration(
        stages=stages,
        values=values,
        checksum=checksum,
        checksum_parts=parts,
        sim_exec_ms=result.execution_time_ms,
        final_rate=final_rate,
        tcm_problem=None if tcm is None else _tcm_problem(tcm),
    )


@dataclass
class Tally:
    """Attempts, failures and why — a failure never aborts the child."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def attempt(self, label: str, fn):
        """Run ``fn``; an exception is one failure and yields None."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # the benchmark must report, not die
            self.fail(f"{label}: {traceback.format_exc(limit=4).strip().splitlines()[-1]}")
            return None

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check_iteration(self, label: str, it: Iteration, expected_checksum: str | None) -> None:
        """One failure at most per iteration: wrong checksum or invalid TCM."""
        if expected_checksum is not None and it.checksum != expected_checksum:
            self.fail(f"{label}: checksum differs from the first same-seed iteration")
        elif it.tcm_problem is not None:
            self.fail(f"{label}: TCM {it.tcm_problem}")


def _warm_up(spec: WorkloadSpec, sizes: dict, seed: int) -> None:
    """One discarded iteration.  If it raises, so will the counted ones."""
    try:
        run_iteration(spec, sizes, seed, profile=spec.profile)
    except Exception:
        pass


def _summary(samples: list[float]) -> dict:
    return {
        "value": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def _reference_accuracy(spec: WorkloadSpec, sizes: dict, seed: int) -> dict[float, float]:
    """TCM accuracy against full sampling at every rung the controller can
    end on, from one full-sampling run (the batches are dropped on return so
    the timed iterations do not carry them)."""
    batches, gos, n_threads, _run = experiments.collect_full_batches(
        lambda: make_workload(spec, sizes, seed), N_NODES
    )
    full = experiments.tcm_at_rate(batches, gos, n_threads, "full")
    problem = _tcm_problem(full)
    if problem is not None:
        raise ValueError(f"reference TCM {problem}")
    return {
        float(rate): accuracy(experiments.tcm_at_rate(batches, gos, n_threads, rate), full, "abs")
        for rate in ADAPTIVE_LADDER
    }


def measure_untraced(
    spec: WorkloadSpec, sizes: dict, *, seed: int, iterations: int, seconds: float
) -> dict:
    """Reference runs, warm-up, timed iterations -> the end-to-end metrics.

    ``iterations`` timed iterations always run; more follow until the timed
    part has lasted ``seconds``.
    """
    tally = Tally()

    twin_sim_ms = None
    accuracy_by_rate = None
    if spec.profile is not None:
        twin = tally.attempt(
            "reference twin", lambda: run_iteration(spec, sizes, seed, profile=None)
        )
        twin_sim_ms = None if twin is None else twin.sim_exec_ms
    if spec.profile == "adaptive":
        accuracy_by_rate = tally.attempt(
            "reference full sampling", lambda: _reference_accuracy(spec, sizes, seed)
        )

    _warm_up(spec, sizes, seed)
    done: list[Iteration] = []
    timed = 0
    started = time.perf_counter()
    while timed < iterations or time.perf_counter() - started < seconds:
        timed += 1
        label = f"timed iteration {timed}"
        it = tally.attempt(label, lambda: run_iteration(spec, sizes, seed, profile=spec.profile))
        if it is None:
            continue
        tally.check_iteration(label, it, done[0].checksum if done else None)
        done.append(it)

    result = {
        "sizes": sizes,
        "iterations": len(done),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "end_to_end": {},
    }
    if not done:
        return result
    first = done[0]
    slowdown = 1.0 if spec.profile is None else None
    if twin_sim_ms:
        slowdown = first.sim_exec_ms / twin_sim_ms
    tcm_accuracy = None if spec.profile == "adaptive" else 1.0
    if accuracy_by_rate is not None:
        tcm_accuracy = accuracy_by_rate.get(first.final_rate)
    result["checksum"] = first.checksum
    result["checksum_parts"] = first.checksum_parts
    result["stages"] = {
        stage: _summary([it.stages[stage] for it in done]) for stage in first.stages
    }
    result["end_to_end"] = {
        "run_wall_s": _summary([it.run_wall_s for it in done]),
        "setup_s": _summary([it.setup_s for it in done]),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
        "sim_exec_ms": {"value": first.sim_exec_ms},
        "sim_slowdown": {"value": slowdown},
        "tcm_accuracy_abs": {"value": tcm_accuracy},
    }
    return result


def measure_traced(
    spec: WorkloadSpec, sizes: dict, *, seed: int, trace_out: Path | None
) -> dict:
    """Warm-up, one untraced and one traced iteration -> the per-layer metrics."""
    tally = Tally()
    _warm_up(spec, sizes, seed)
    plain = tally.attempt(
        "untraced iteration", lambda: run_iteration(spec, sizes, seed, profile=spec.profile)
    )
    if plain is not None:
        tally.check_iteration("untraced iteration", plain, None)

    tracer = LayerTracer()
    tracer.install()
    try:
        traced = tally.attempt(
            "traced iteration",
            lambda: run_iteration(spec, sizes, seed, profile=spec.profile, tracer=tracer),
        )
    finally:
        tracer.uninstall()
    if traced is not None:
        tally.check_iteration(
            "traced iteration", traced, None if plain is None else plain.checksum
        )

    result = {
        "sizes": sizes,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "per_layer": {},
    }
    if plain is None or traced is None:
        return result
    if trace_out is not None:
        tracer.write_chrome_trace(trace_out)

    layers = tracer.by_layer()
    values = dict(plain.values)
    values["workloads.build_s"] = plain.stages["build_s"]
    values["runtime.program.compile_s"] = plain.stages["compile_s"]
    values["core.profiler.attach_s"] = plain.stages["attach_s"]
    values["runtime.djvm.run_s"] = plain.stages["run_s"]
    values["core.collector.tcm_s"] = plain.stages["tcm_s"]
    values["runtime.ops_per_s"] = values["runtime.ops_executed"] / plain.stages["run_s"]
    for layer in LAYERS:
        span = layers.get(layer, {"calls": 0, "self_s": 0.0})
        values[f"{layer}.calls"] = span["calls"]
        values[f"{layer}.self_s"] = span["self_s"]
    values["runtime.vector.bypass_share"] = (
        1.0 - values["dsm.hlrc.access.calls"] / values["runtime.program.access_ops"]
    )
    hook_calls = values["core.access_profiler.on_access.calls"]
    values["core.access_profiler.logged_share"] = (
        values.get("core.access_profiler.logged", 0) / hook_calls if hook_calls else 0.0
    )
    root_s = layers[ROOT_SPAN]["total_s"]
    values["trace.overhead_ratio"] = traced.run_wall_s / plain.run_wall_s
    values["trace.spans"] = tracer.span_count()
    values["trace.self_coverage"] = (
        sum(span["self_s"] for layer, span in layers.items() if layer != ROOT_SPAN) / root_s
    )
    # A metric with no source on this workload reads 0; it is never dropped.
    result["per_layer"] = {
        name: {"value": values.get(name, 0)} for name, _unit, _better in PER_LAYER
    }
    result["checksum"] = plain.checksum
    result["traced_run_wall_s"] = traced.run_wall_s
    result["layers"] = layers
    return result
