"""Reusable experiment drivers shared by the benchmark suite, examples
and integration tests.

The accuracy experiments exploit a determinism the real system also has:
whether an object is sampled at a given rate depends only on its
immutable identity (sequence number and class for the prime-gap scheme,
object id for the stateless backends) — not on timing — so the OAL
stream at any rate *under any backend* is a filter of the full-sampling
OAL stream.  One profiled run at full sampling therefore yields the TCM
at every rate and backend (:func:`tcm_at_rate`), exactly as a re-run at
that configuration would produce, at a fraction of the cost.  Overhead experiments, whose point is the
cost accounting itself, re-run per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.accuracy import accuracy
from repro.core.oal import OALBatch
from repro.core.profiler import ProfilerSuite
from repro.core.sampling import SamplingPolicy
from repro.core.tcm import build_tcm, resampled_tcm
from repro.dsm.pagedsm import PageGrainTracker
from repro.heap.heap import GlobalObjectSpace
from repro.heap.pages import PageMap
from repro.runtime.djvm import DJVM, RunResult
from repro.sim.costs import CostModel
from repro.workloads.base import Workload

#: the Fig. 9 rate ladder, finest to coarsest as plotted.
FIG9_RATES: tuple[float, ...] = (512, 256, 128, 64, 32, 16, 8, 4, 2, 1)


@dataclass
class ProfiledRun:
    """One simulated execution plus its attached profiling machinery."""

    workload: Workload
    djvm: DJVM
    result: RunResult
    suite: ProfilerSuite | None = None
    page_tracker: PageGrainTracker | None = None


def build_djvm(
    workload: Workload,
    n_nodes: int,
    *,
    costs: CostModel | None = None,
    placement: str = "block",
    observers=(),
) -> DJVM:
    """Boot a DJVM, attach ``observers`` (ProtocolObserver instances)
    and build the workload on it."""
    djvm = DJVM(n_nodes=n_nodes, costs=costs)
    for observer in observers:
        djvm.attach(observer)
    workload.build(djvm, placement=placement)
    return djvm


def run_baseline(
    workload_factory: Callable[[], Workload],
    n_nodes: int,
    *,
    costs: CostModel | None = None,
) -> ProfiledRun:
    """Run a workload with every profiler disabled ("No Correl. Tracking")."""
    workload = workload_factory()
    djvm = build_djvm(workload, n_nodes, costs=costs)
    result = djvm.run(workload.programs())
    return ProfiledRun(workload=workload, djvm=djvm, result=result)


def run_with_correlation(
    workload_factory: Callable[[], Workload],
    n_nodes: int,
    rate: float | str,
    *,
    send_oals: bool = True,
    costs: CostModel | None = None,
    sampling_backend=None,
    observers=(),
) -> ProfiledRun:
    """Run with correlation tracking at one sampling rate (optionally
    under a non-default sampling backend, optionally with pure
    observers — e.g. the object-centric profiler — attached)."""
    workload = workload_factory()
    djvm = build_djvm(workload, n_nodes, costs=costs, observers=observers)
    suite = ProfilerSuite(
        djvm,
        correlation=True,
        send_oals=send_oals,
        sampling_backend=sampling_backend,
    )
    suite.set_rate_all(rate)
    result = djvm.run(workload.programs())
    return ProfiledRun(workload=workload, djvm=djvm, result=result, suite=suite)


def run_with_sticky_profiling(
    workload_factory: Callable[[], Workload],
    n_nodes: int,
    *,
    rate: float | str = 4,
    stack: bool = True,
    footprint: bool = True,
    stack_gap_ms: float = 16.0,
    lazy_extraction: bool = True,
    footprint_timer_ms: float | None = None,
    costs: CostModel | None = None,
) -> ProfiledRun:
    """Run with sticky-set profiling (stack sampling and/or footprinting)
    and correlation tracking disabled — the paper's isolation methodology
    for the Table V overhead columns."""
    workload = workload_factory()
    djvm = build_djvm(workload, n_nodes, costs=costs)
    suite = ProfilerSuite(
        djvm,
        correlation=False,
        stack=stack,
        footprint=footprint,
        stack_gap_ms=stack_gap_ms,
        lazy_extraction=lazy_extraction,
        footprint_timer_ms=footprint_timer_ms,
    )
    suite.set_rate_all(rate)
    result = djvm.run(workload.programs())
    return ProfiledRun(workload=workload, djvm=djvm, result=result, suite=suite)


# ---------------------------------------------------------------------------
# offline per-rate TCMs from one full-sampling run
# ---------------------------------------------------------------------------


def collect_full_batches(
    workload_factory: Callable[[], Workload],
    n_nodes: int,
    *,
    costs: CostModel | None = None,
) -> tuple[list[OALBatch], GlobalObjectSpace, int, ProfiledRun]:
    """One profiled run at full sampling; returns its OAL batches."""
    workload = workload_factory()
    djvm = build_djvm(workload, n_nodes, costs=costs)
    suite = ProfilerSuite(djvm, correlation=True, send_oals=False)
    suite.set_full_sampling()
    batches: list[OALBatch] = []
    original = suite.collector

    class _Recorder:
        """Tees delivered batches into a list while still feeding the
        suite's real collector (so ``suite.tcm()`` keeps working)."""

        gos = djvm.gos

        @staticmethod
        def deliver(batch: OALBatch, *, now_ns: int | None = None) -> None:
            batches.append(batch)
            original.deliver(batch, now_ns=now_ns)

    assert suite.access_profiler is not None
    suite.access_profiler.collector = _Recorder()
    result = djvm.run(workload.programs())
    run = ProfiledRun(workload=workload, djvm=djvm, result=result, suite=suite)
    return batches, djvm.gos, len(djvm.threads), run


def tcm_at_rate(
    batches: Sequence[OALBatch],
    gos: GlobalObjectSpace,
    n_threads: int,
    rate: float | str,
    *,
    page_size: int = 4096,
    use_prime_gaps: bool = True,
    backend=None,
) -> np.ndarray:
    """The TCM a run at ``rate`` would produce, computed by filtering the
    full-sampling OAL stream through that rate's sampling policy (under
    any decision ``backend`` — decisions are pure functions of object
    identity for every backend, so the filter is exact)."""
    policy = SamplingPolicy(
        page_size=page_size, use_prime_gaps=use_prime_gaps, backend=backend
    )
    for st in gos.registry:
        policy.set_rate(st, rate)
    return resampled_tcm(batches, policy, gos, n_threads)


@dataclass
class AccuracyCurves:
    """Fig. 9 data for one workload: accuracy per rate per metric."""

    rates: list[float]
    absolute_abs: list[float]
    absolute_euc: list[float]
    relative_abs: list[float]
    relative_euc: list[float]


def accuracy_curves(
    workload_factory: Callable[[], Workload],
    n_nodes: int,
    *,
    rates: Sequence[float] = FIG9_RATES,
    costs: CostModel | None = None,
    use_prime_gaps: bool = True,
) -> AccuracyCurves:
    """Reproduce one Fig. 9 panel: absolute accuracy (vs the full-sampling
    map) and relative accuracy (vs the next finer rate) under both
    distance metrics, for every rate on the ladder (finest first)."""
    batches, gos, n_threads, _run = collect_full_batches(
        workload_factory, n_nodes, costs=costs
    )
    full = tcm_at_rate(batches, gos, n_threads, "full", use_prime_gaps=use_prime_gaps)
    maps = {
        r: tcm_at_rate(batches, gos, n_threads, r, use_prime_gaps=use_prime_gaps)
        for r in rates
    }
    curves = AccuracyCurves([], [], [], [], [])
    finer: np.ndarray = full
    for r in rates:  # finest -> coarsest, as the paper's x-axis runs
        tcm = maps[r]
        curves.rates.append(r)
        curves.absolute_abs.append(accuracy(tcm, full, "abs"))
        curves.absolute_euc.append(accuracy(tcm, full, "euc"))
        curves.relative_abs.append(accuracy(tcm, finer, "abs"))
        curves.relative_euc.append(accuracy(tcm, finer, "euc"))
        finer = tcm
    return curves


# ---------------------------------------------------------------------------
# Fig. 1: inherent vs induced correlation maps
# ---------------------------------------------------------------------------


@dataclass
class FalseSharingMaps:
    """Fig. 1 data: the same run observed at two granularities."""

    inherent: np.ndarray
    induced: np.ndarray
    false_sharing_degree: float


def false_sharing_maps(
    workload_factory: Callable[[], Workload],
    n_nodes: int,
    *,
    page_size: int = 4096,
    costs: CostModel | None = None,
) -> FalseSharingMaps:
    """One run observed simultaneously at object grain (inherent map,
    full sampling) and page grain (induced map, D-CVM style)."""
    workload = workload_factory()
    djvm = build_djvm(workload, n_nodes, costs=costs)
    suite = ProfilerSuite(djvm, correlation=True, send_oals=False)
    suite.set_full_sampling()
    pagemap = PageMap(page_size=page_size)
    pagemap.place_all(djvm.gos)
    tracker = PageGrainTracker(pagemap)
    djvm.add_hook(tracker)
    djvm.run(workload.programs())
    # Late-allocated objects (none today, but workloads may change) are
    # placed lazily by the tracker only if present in the page map; make
    # sure everything is placed for the induced map.
    inherent = suite.tcm()
    induced = build_tcm(tracker.induced_entries(), len(djvm.threads))
    return FalseSharingMaps(
        inherent=inherent,
        induced=induced,
        false_sharing_degree=tracker.false_sharing_degree(),
    )
