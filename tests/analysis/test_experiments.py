"""Tests for the shared experiment drivers."""

import numpy as np
import pytest

from repro.analysis import experiments as E
from repro.sim.costs import CostModel
from repro.workloads import GroupSharingWorkload


def group_factory():
    return GroupSharingWorkload(n_threads=8, group_size=2, rounds=3, seed=1)


FAST = CostModel.fast_test()


class TestRunners:
    def test_baseline_has_no_profiling_cost(self):
        run = E.run_baseline(group_factory, 4, costs=FAST)
        assert run.result.total_cpu.profiling_ns == 0
        assert run.suite is None

    def test_correlation_run_produces_tcm(self):
        run = E.run_with_correlation(group_factory, 4, rate=4, costs=FAST)
        tcm = run.suite.tcm()
        assert tcm.shape == (8, 8)
        assert tcm.sum() > 0

    def test_sticky_run_disables_correlation(self):
        run = E.run_with_sticky_profiling(group_factory, 4, costs=FAST)
        assert run.suite.access_profiler is None
        assert run.suite.stack_sampler is not None
        assert run.suite.footprinter is not None


class TestOfflineRateFiltering:
    def test_full_rate_filter_reproduces_live_tcm(self):
        """Filtering the full-sampling OAL stream at rate 'full' must give
        exactly the live profiler's map."""
        batches, gos, n, run = E.collect_full_batches(group_factory, 4, costs=FAST)
        offline = E.tcm_at_rate(batches, gos, n, "full")
        live = run.suite.tcm()
        assert np.allclose(offline, live)

    def test_offline_filter_matches_rerun_at_rate(self):
        """The determinism claim behind the sweep optimization: filtering
        offline at rate r equals actually re-running the profiler at r."""
        batches, gos, n, _ = E.collect_full_batches(group_factory, 4, costs=FAST)
        offline = E.tcm_at_rate(batches, gos, n, 2)
        rerun = E.run_with_correlation(group_factory, 4, rate=2, costs=FAST)
        assert np.allclose(offline, rerun.suite.tcm())

    def test_accuracy_curves_shape(self):
        curves = E.accuracy_curves(
            group_factory, 4, rates=(16, 4, 1), costs=FAST
        )
        assert curves.rates == [16, 4, 1]
        assert len(curves.absolute_abs) == 3
        assert all(0 <= a <= 1 for a in curves.absolute_abs)
        # The finest rate's relative accuracy compares against full.
        assert curves.relative_abs[0] == pytest.approx(curves.absolute_abs[0])


class TestFalseSharingMaps:
    def test_induced_map_shows_phantom_sharing(self):
        """Private per-thread objects packed into shared pages: the
        inherent map is block-diagonal, the induced map is denser."""
        factory = lambda: GroupSharingWorkload(
            n_threads=8, group_size=2, rounds=2, object_size=64, seed=2
        )
        maps = E.false_sharing_maps(factory, 4, costs=FAST)
        inherent_nonzero = (maps.inherent > 0).sum()
        induced_nonzero = (maps.induced > 0).sum()
        assert induced_nonzero >= inherent_nonzero
        assert maps.false_sharing_degree > 1.0
