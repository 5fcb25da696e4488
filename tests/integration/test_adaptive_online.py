"""Integration: the online adaptive rate controller driving a windowed
collector over a live run."""

from repro.analysis import experiments as E
from repro.core.adaptive import AdaptiveRateController, OfflineRateSearch
from repro.core.profiler import ProfilerSuite
from repro.sim.costs import CostModel
from repro.workloads import GroupSharingWorkload

FAST = CostModel.fast_test()


def factory(rounds=12):
    return GroupSharingWorkload(
        n_threads=8,
        group_size=2,
        objects_per_group=64,
        private_per_thread=24,
        rounds=rounds,
        seed=9,
    )


class TestOnlineController:
    def run_controlled(self, threshold=0.05):
        wl = factory()
        djvm = E.build_djvm(wl, 4, costs=FAST)
        suite = ProfilerSuite(
            djvm, correlation=True, send_oals=False, window_batches=8
        )
        suite.set_rate_all(1)
        ctrl = AdaptiveRateController(threshold=threshold, ladder=(1, 2, 4, 8, 16))
        suite.attach_controller(ctrl)
        djvm.run(wl.programs())
        return wl, djvm, suite, ctrl

    def test_controller_settles(self):
        wl, djvm, suite, ctrl = self.run_controlled()
        assert ctrl.settled
        assert ctrl.decisions, "controller must have observed windows"

    def test_rate_changes_trigger_resampling(self):
        wl, djvm, suite, ctrl = self.run_controlled(threshold=0.0001)
        # An impossible threshold forces repeated rate climbs; every
        # change must charge a resampling pass somewhere.
        total_resampling = sum(
            t.cpu.resampling_ns for t in djvm.threads
        )
        assert suite.policy.rate_changes > 0
        assert total_resampling > 0

    def test_settled_map_is_accurate(self):
        wl, djvm, suite, ctrl = self.run_controlled()
        tcm = suite.tcm()
        truth = wl.true_tcm()
        from repro.core.accuracy import accuracy

        assert accuracy(tcm / tcm.max(), truth / truth.max(), "abs") > 0.85


class TestOfflineSearchOnRealWorkload:
    def test_search_picks_economical_rate(self):
        batches, gos, n, _ = E.collect_full_batches(lambda: factory(4), 4, costs=FAST)
        search = OfflineRateSearch(threshold=0.05, ladder=(1, 2, 4, 8, 16))
        chosen = search.run(lambda r: E.tcm_at_rate(batches, gos, n, r))
        # The chosen rate's map must be within ~2x the threshold of full.
        from repro.core.accuracy import absolute_error

        full = E.tcm_at_rate(batches, gos, n, "full")
        err = absolute_error(E.tcm_at_rate(batches, gos, n, chosen), full)
        assert err < 0.15
