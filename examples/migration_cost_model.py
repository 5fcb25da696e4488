#!/usr/bin/env python3
"""Sticky sets and the real cost of thread migration.

A thread's migration costs far more than shipping its stack: the objects
it keeps using ("sticky set", Section III) fault back one round trip at
a time.  This example runs Barnes-Hut with sticky-set profiling (stack
sampling + footprinting) enabled, migrates one thread mid-computation
three ways, and compares:

* no prefetch           — pay every post-migration fault;
* sticky-set prefetch   — resolution from stack invariants, bundled
                          along with the migration;
* oracle prefetch       — ground truth (accessed before and after the
                          migration instant), the unreachable ideal.

Run:  python examples/migration_cost_model.py
"""

from repro import DJVM, MigrationPlan, ProfilerSuite
from repro.dsm import IntervalHistory
from repro.workloads import BarnesHutWorkload

MIGRATE_AT_PC = 5200
TARGET_NODE = 7


def run(mode: str):
    workload = BarnesHutWorkload(n_bodies=1024, rounds=3, n_threads=8, seed=11)
    djvm = DJVM(n_nodes=8)
    workload.build(djvm)
    history = djvm.attach(IntervalHistory())
    suite = ProfilerSuite(djvm, correlation=False, stack=True, footprint=True)
    suite.set_rate_all(4)
    info = {}

    def provider(thread):
        if mode == "none":
            return []
        if mode == "sticky":
            stats = suite.resolve_sticky_set(thread, charge_cost=True)
            info["resolution"] = stats
            return stats.selected
        # oracle: peek at the future access stream (impossible in a real
        # system; run once to know the interval's ground truth).
        return info["oracle_ids"]

    if mode == "oracle":
        # First run without migrating to learn the ground truth.
        probe = run("none")
        info["oracle_ids"] = probe["truth_ids"]

    djvm.migration.schedule(
        MigrationPlan(thread_id=0, target_node=TARGET_NODE, at_pc=MIGRATE_AT_PC,
                      prefetch_provider=provider)
    )
    result = djvm.run(workload.programs())

    interval, summaries = next(
        (iv, summaries)
        for iv, summaries in zip(history.by_thread[0], history.summaries[0])
        if iv.start_pc < MIGRATE_AT_PC <= iv.end_pc
    )
    mid = (interval.start_ns + interval.end_ns) // 2
    truth = {o for o, s in summaries.items() if s.first_ns < mid <= s.last_ns}
    mig = djvm.migration.results[0]
    info.update(
        result=result,
        truth_ids=sorted(truth),
        faults=result.counters["faults"],
        finish_ms=result.thread_finish_ms[0],
        prefetched=mig.prefetched_objects,
        prefetch_kb=mig.prefetched_bytes / 1024,
    )
    return info


def main() -> None:
    print("migrating thread 0 mid-force-phase, three ways...\n")
    runs = {mode: run(mode) for mode in ("none", "sticky", "oracle")}

    print(f"{'strategy':<12} {'prefetched':>10} {'bundle KB':>10} "
          f"{'total faults':>13} {'thread-0 finish (ms)':>21}")
    for mode, info in runs.items():
        print(f"{mode:<12} {info['prefetched']:>10} {info['prefetch_kb']:>10.1f} "
              f"{info['faults']:>13} {info['finish_ms']:>21.1f}")

    sticky = runs["sticky"]
    stats = sticky["resolution"]
    truth = set(runs["none"]["truth_ids"])
    est = set(stats.selected)
    precision = len(truth & est) / max(len(est), 1)
    print(f"\nsticky-set resolution: {len(est)} objects selected from "
          f"{stats.visited} visited ({stats.landmark_stops} landmark stops), "
          f"precision vs ground truth {precision * 100:.0f}%")
    saved = runs["none"]["faults"] - sticky["faults"]
    print(f"prefetching the resolved set avoided {saved} remote faults "
          f"({saved / (runs['none']['faults'] - runs['oracle']['faults'] + 1e-9) * 100:.0f}% "
          "of what the oracle avoids)")


if __name__ == "__main__":
    main()
