"""Shared checked-run harness for the runtime check gates.

The ``sanitize`` and ``race`` subcommands of ``python -m repro.checks``
exercise the same tracked bench workloads (SOR, Barnes-Hut,
Water-Spatial) at the same small test scale — big enough to generate
faults, diffs, barriers and OAL traffic on every node, small enough for
CI.  This module owns that shared harness: workload construction, the
profiler-suite attachment, the optional mid-run migration that covers
the sanitizer's sticky-set/prefetch invariant (SAN006), and the optional
dominant-writer home migration that re-homes objects mid-run.

* :func:`run_checked` builds a DJVM with the given checker attached,
  runs one workload, and returns ``(result, djvm)``.
* :func:`run_sanitize_all` runs every tracked workload, plus one
  re-homing run (:func:`rehoming_workload`), under the protocol
  sanitizer (violations raise) and reports how each run's access runs
  were routed.
* :func:`run_race_all` runs every tracked workload plus the seeded
  racy/locked synthetic pair under the happens-before race detector
  and returns the collected reports and each run's access-run routing
  for the CLI to gate on.
"""

from __future__ import annotations

from repro.checks.racedetect import RaceDetector
from repro.checks.sanitizer import ProtocolSanitizer
from repro.core.profiler import ProfilerSuite
from repro.dsm.homemigration import DominantWriterPolicy, HomeMigrationEngine
from repro.runtime.djvm import DJVM, RunResult
from repro.workloads.barnes_hut import BarnesHutWorkload
from repro.workloads.sor import SORWorkload
from repro.workloads.synthetic import RacyCounterWorkload
from repro.workloads.water_spatial import WaterSpatialWorkload

#: test-scale configuration shared by every check gate run.
N_THREADS = 4
N_NODES = 4
#: the race gate's seeded synthetic pair (the locked twin's access spans
#: are too short for a one-pass run, so the one-pass requirement exempts
#: the pair).
SYNTHETIC_PAIR = ("RacyCounter[racy]", "RacyCounter[locked]")


def tracked_workloads():
    """The three tracked bench workloads at check-gate scale."""
    return [
        ("SOR", SORWorkload(n=256, rounds=2, n_threads=N_THREADS, seed=11)),
        ("Barnes-Hut", BarnesHutWorkload(n_bodies=192, rounds=2, n_threads=N_THREADS, seed=11)),
        ("Water-Spatial", WaterSpatialWorkload(n_molecules=64, rounds=2, n_threads=N_THREADS, seed=11)),
    ]


def rehoming_workload():
    """The sanitize gate's re-homing run: SOR with two threads per node
    (block placement), so a thread's block-boundary row is read on its
    home node by the neighbour sharing that node.  Thread 0 migrates
    away mid-run; its rows, now written from the new node, re-home there
    under a dominant-writer policy, and the neighbour left behind reads
    them through cache copies, whose state the one pass must read
    afresh at every run.  Four rounds, so that a re-homed row is written at
    its new home and then read by that neighbour again: a re-homing
    itself invalidates no copy."""
    return "SOR re-homing", SORWorkload(n=256, rounds=4, n_threads=2 * N_THREADS, seed=11)


def run_checked(
    workload, checker, *, migrate: bool = False, rehome: bool = False
) -> tuple[RunResult, DJVM]:
    """Execute one workload with ``checker`` (a ProtocolObserver: the
    sanitizer or a race detector) attached; the checker carries the
    check outcome.

    The full profiler suite rides along (rate 4) so the checker sees
    realistic protocol + profiling traffic; ``migrate=True`` also queues
    a mid-run prefetching migration of thread 0, and ``rehome=True``
    builds with block placement and re-homes objects to their dominant
    writer's node (a :class:`DominantWriterPolicy` among
    ``djvm.hlrc.hooks``).  Returns the run result and the spent DJVM.
    """
    djvm = DJVM(n_nodes=N_NODES)
    djvm.attach(checker)
    workload.build(djvm, placement="block" if rehome else "round_robin")
    suite = ProfilerSuite(djvm, correlation=True, footprint=True, stack=True)
    suite.set_rate_all(4)
    if migrate:
        _schedule_migration(djvm, suite)
    if rehome:
        engine = HomeMigrationEngine(djvm.hlrc)
        djvm.add_hook(DominantWriterPolicy(engine, min_writes=2, cooldown_writes=4))
    result = djvm.run(workload.programs())
    return result, djvm


def rehomed_objects(djvm: DJVM) -> int:
    """Objects the run's dominant-writer policies re-homed."""
    return sum(
        hook.engine.stats.migrations
        for hook in djvm.hlrc.hooks
        if isinstance(hook, DominantWriterPolicy)
    )


def _schedule_migration(djvm: DJVM, suite: ProfilerSuite) -> None:
    """Queue a mid-run prefetching migration of thread 0 so the
    sanitizer's sticky-set/prefetch invariant (SAN006) sees traffic."""
    from repro.runtime.migration import MigrationPlan

    thread = djvm.threads[0]
    target = (thread.node_id + 1) % len(djvm.cluster)

    def provider(t):
        stats = suite.resolve_sticky_set(t, charge_cost=False)
        return stats.selected

    djvm.migration.schedule(
        MigrationPlan(
            thread_id=thread.thread_id,
            target_node=target,
            at_interval=2,
            prefetch_provider=provider,
        )
    )


def run_sanitize_all(*, verbose: bool = True) -> list[tuple[str, int, int, dict[str, int]]]:
    """Run every tracked workload sanitized; returns
    ``[(name, checks_run, violations, DJVM.replay_routing), ...]``.
    Violations raise."""
    report = []
    runs = [(name, workload, False) for name, workload in tracked_workloads()]
    runs.append((*rehoming_workload(), True))
    for name, workload, rehome in runs:
        sanitizer = ProtocolSanitizer()
        _, djvm = run_checked(workload, sanitizer, migrate=name.startswith("SOR"), rehome=rehome)
        routing = djvm.replay_routing
        report.append((name, sanitizer.checks_run, sanitizer.violations, routing))
        if verbose:
            rehomed = f", {rehomed_objects(djvm)} re-homed" if rehome else ""
            print(
                f"  sanitize {name:<14} {sanitizer.checks_run:>7} checks, "
                f"{sanitizer.violations} violations{rehomed}"
            )
            print("    replay: " + ", ".join(f"{k} {v}" for k, v in routing.items()))
    return report


def race_workloads():
    """The race-gate run matrix: every tracked workload (expected
    race-free) plus the seeded racy/locked synthetic pair (the racy
    variant is the ground-truth positive the gate must catch)."""
    entries = [(name, wl, False) for name, wl in tracked_workloads()]
    for name, locked in zip(SYNTHETIC_PAIR, (False, True)):
        entries.append(
            (name, RacyCounterWorkload(n_threads=N_THREADS, locked=locked, seed=11), not locked)
        )
    return entries


def run_race_all(*, verbose: bool = True) -> list[tuple[str, int, list, bool, dict[str, int]]]:
    """Run the race-gate matrix under the happens-before detector.

    Returns ``[(name, intervals_checked, reports, expected_racy,
    DJVM.replay_routing), ...]`` — the CLI decides pass/fail (zero
    reports where ``expected_racy`` is False, at least one report on the
    shared counter where True, one-pass runs on every tracked workload).
    """
    out = []
    for name, workload, expected in race_workloads():
        detector = RaceDetector()
        _, djvm = run_checked(workload, detector)
        routing = djvm.replay_routing
        out.append((name, detector.intervals_checked, list(detector.reports), expected, routing))
        if verbose:
            print(
                f"  race     {name:<19} {detector.intervals_checked:>5} intervals, "
                f"{len(detector.reports)} race(s)"
            )
            print("    replay: " + ", ".join(f"{k} {v}" for k, v in routing.items()))
    return out
