"""Self-overhead accounting: what does observing cost?

Two axes, deliberately kept apart:

* **Simulated overhead** — the paper's numbers.  Profiling work is
  charged to simulated CPU buckets (:class:`~repro.sim.costs.CpuAccounting`),
  so Tables II/III/V compare simulated execution times:
  :func:`overhead_frac` and :func:`profiling_attribution` are the
  arithmetic those benchmarks share.
* **Host (wall-clock) overhead** — what the telemetry layer itself
  costs *us*.  Mertz & Nunes argue an adaptive monitor must measure its
  own overhead; here :func:`measure` times a base run against a
  telemetry-on run of the same workload and combines that with the
  layer's self-reported ``self_ns`` (real ns spent inside tracer/
  registry calls).  The ``make obs`` gate *prints* the result; it is
  one sample of a ~20 ms run, so nothing passes or fails on it — a
  host-time verdict takes the paired runs of ``benchmarks/e2e``.

Nothing in this module touches simulated state; it only reads finished
runs.  (Wall-clock reads are allowed here — ``repro.obs`` sits outside
the deterministic core that simlint SIM001 polices.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = [
    "OverheadReport",
    "measure",
    "overhead_frac",
    "profiling_attribution",
]

_perf_ns = time.perf_counter_ns


def overhead_frac(base, with_overhead) -> float:
    """Relative overhead ``(with - base) / base`` (0.0 for a 0 base)."""
    if base == 0:
        return 0.0
    return (with_overhead - base) / base


def profiling_attribution(cpu) -> dict[str, int]:
    """Decompose one :class:`~repro.sim.costs.CpuAccounting` into the
    base-runtime vs profiler-work split (simulated ns)."""
    base_ns = (
        cpu.compute_ns + cpu.access_ns + cpu.protocol_ns + cpu.network_wait_ns
        + cpu.migration_ns
    )
    return {
        "base_ns": base_ns,
        "profiling_ns": cpu.profiling_ns,
        "oal_logging_ns": cpu.oal_logging_ns,
        "oal_packing_ns": cpu.oal_packing_ns,
        "resampling_ns": cpu.resampling_ns,
        "stack_sampling_ns": cpu.stack_sampling_ns,
        "footprinting_ns": cpu.footprinting_ns,
        "resolution_ns": cpu.resolution_ns,
        "total_ns": cpu.total_ns,
    }


@dataclass
class OverheadReport:
    """Wall-clock cost of running with telemetry attached."""

    #: wall seconds of the telemetry-off run.
    base_wall_s: float
    #: wall seconds of the telemetry-on run.
    telemetry_wall_s: float
    #: telemetry's self-reported host ns (tracer + registry internals).
    observer_wall_ns: int = 0
    #: spans recorded during the telemetry run (0 when tracing is off).
    spans: int = 0
    #: metric samples in the final snapshot.
    samples: int = 0

    @property
    def overhead_frac(self) -> float:
        """End-to-end wall overhead of switching telemetry on."""
        return overhead_frac(self.base_wall_s, self.telemetry_wall_s)

    @property
    def observer_frac(self) -> float:
        """Self-reported observer time as a share of the telemetry run."""
        if self.telemetry_wall_s == 0:
            return 0.0
        return (self.observer_wall_ns / 1e9) / self.telemetry_wall_s

    def render(self) -> str:
        return (
            f"base {self.base_wall_s * 1e3:.1f} ms | "
            f"telemetry {self.telemetry_wall_s * 1e3:.1f} ms | "
            f"overhead {self.overhead_frac * 100:+.1f}% | "
            f"observer self-report {self.observer_wall_ns / 1e6:.2f} ms "
            f"({self.observer_frac * 100:.1f}% of run) | "
            f"{self.spans} spans, {self.samples} samples"
        )


def measure(run_base, run_telemetry) -> OverheadReport:
    """Report telemetry wall overhead for one workload.

    ``run_base()`` must execute the workload with telemetry off;
    ``run_telemetry()`` with telemetry on, returning the bound
    :class:`~repro.obs.Telemetry` context of that run (or None).  Each
    runs once.
    """
    base_wall = _timed(run_base)[0]
    telemetry_wall, telemetry = _timed(run_telemetry)
    if telemetry is None:
        return OverheadReport(base_wall_s=base_wall, telemetry_wall_s=telemetry_wall)
    return OverheadReport(
        base_wall_s=base_wall,
        telemetry_wall_s=telemetry_wall,
        observer_wall_ns=telemetry.self_wall_ns,
        spans=len(telemetry.tracer.spans) if telemetry.tracer is not None else 0,
        samples=len(telemetry.snapshot()),
    )


def _timed(fn):
    t0 = _perf_ns()
    value = fn()
    return (_perf_ns() - t0) / 1e9, value
