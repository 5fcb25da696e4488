"""Integration: the full sticky-set pipeline — stack sampling, footprint
estimation, resolution, and prefetching migration — reduces the indirect
migration cost on a real workload."""

from repro.analysis import experiments as E
from repro.core.profiler import ProfilerSuite
from repro.dsm.intervals import IntervalHistory
from repro.runtime.migration import MigrationPlan
from repro.workloads import BarnesHutWorkload


def run_with_migration(prefetch: bool, at_pc: int = 5200):
    """Run BH, migrating thread 0 mid-force-phase; optionally prefetching
    the resolved sticky set.  Returns (djvm, run result, resolution)."""
    wl = BarnesHutWorkload(n_bodies=1024, rounds=3, n_threads=8, seed=11)
    djvm = E.build_djvm(wl, 8)
    suite = ProfilerSuite(djvm, correlation=False, stack=True, footprint=True)
    suite.set_rate_all(4)
    captured = {}

    def provider(thread):
        stats = suite.resolve_sticky_set(thread, charge_cost=True)
        captured["stats"] = stats
        return stats.selected if prefetch else []

    djvm.migration.schedule(
        MigrationPlan(thread_id=0, target_node=7, at_pc=at_pc, prefetch_provider=provider)
    )
    result = djvm.run(wl.programs())
    return djvm, result, captured.get("stats")


class TestPrefetchEconomics:
    def test_prefetch_cuts_post_migration_faults(self):
        djvm_no, res_no, _ = run_with_migration(prefetch=False)
        djvm_yes, res_yes, stats = run_with_migration(prefetch=True)
        assert stats is not None and stats.selected
        assert res_yes.counters["faults"] < res_no.counters["faults"]
        # A sizeable cut: the sticky set covers a good share of re-fetches.
        saved = res_no.counters["faults"] - res_yes.counters["faults"]
        assert saved > 0.3 * len(stats.selected)

    def test_prefetch_improves_migrated_thread_time(self):
        _, res_no, _ = run_with_migration(prefetch=False)
        _, res_yes, _ = run_with_migration(prefetch=True)
        assert res_yes.thread_finish_ms[0] < res_no.thread_finish_ms[0]

    def test_resolution_cost_charged(self):
        djvm, res, stats = run_with_migration(prefetch=True)
        assert stats.cost_ns > 0
        assert res.thread_cpu[0].resolution_ns == stats.cost_ns


class TestResolutionQuality:
    def test_resolved_set_overlaps_ground_truth(self):
        """Precision against the true sticky set (objects accessed both
        before and after the migration instant within the interval)."""
        wl = BarnesHutWorkload(n_bodies=1024, rounds=3, n_threads=8, seed=11)
        djvm = E.build_djvm(wl, 8)
        history = djvm.attach(IntervalHistory())
        suite = ProfilerSuite(djvm, correlation=False, stack=True, footprint=True)
        suite.set_rate_all(4)
        captured = {}

        def provider(thread):
            stats = suite.resolve_sticky_set(thread, charge_cost=False)
            captured["stats"] = stats
            return stats.selected

        at_pc = 5200
        djvm.migration.schedule(
            MigrationPlan(thread_id=0, target_node=7, at_pc=at_pc, prefetch_provider=provider)
        )
        djvm.run(wl.programs())

        interval, summaries = next(
            (iv, summaries)
            for iv, summaries in zip(history.by_thread[0], history.summaries[0])
            if iv.start_pc < at_pc <= iv.end_pc
        )
        mid = (interval.start_ns + interval.end_ns) // 2
        truth = {
            oid
            for oid, s in summaries.items()
            if s.first_ns < mid <= s.last_ns
        }
        est = set(captured["stats"].selected)
        assert truth, "ground-truth sticky set should not be empty mid-force-phase"
        precision = len(truth & est) / len(est)
        recall = len(truth & est) / len(truth)
        # Precision is the quality bar: most of what we prefetch must be
        # genuinely sticky.  Recall is intentionally budget-limited — the
        # resolution stops once the footprint estimate is met ("a right
        # amount of prefetching", Section V), so it is bounded by the
        # estimated-to-true footprint ratio rather than approaching 1.
        assert precision > 0.4
        assert recall > 0.1
