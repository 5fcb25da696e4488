"""Integration: profiler accuracy against known ground truth, and the
profile-to-placement pipeline."""

from repro.analysis import experiments as E
from repro.core.accuracy import accuracy
from repro.placement.partition import greedy_partition, partition_quality, refine_partition
from repro.sim.costs import CostModel
from repro.workloads import GroupSharingWorkload

FAST = CostModel.fast_test()


def factory():
    return GroupSharingWorkload(
        n_threads=16,
        group_size=4,
        objects_per_group=96,
        private_per_thread=40,
        object_size=72,
        rounds=3,
        seed=5,
    )


class TestAccuracyAgainstGroundTruth:
    def test_full_sampling_recovers_structure(self):
        run = E.run_with_correlation(factory, 8, rate="full", costs=FAST)
        wl = run.workload
        tcm = run.suite.tcm()
        truth = wl.true_tcm()
        assert accuracy(tcm / tcm.max(), truth / truth.max(), "abs") > 0.9

    def test_sampling_degrades_gracefully(self):
        """Accuracy vs full sampling decreases monotonically-ish but stays
        high at moderate rates (the Fig. 9 claim on synthetic truth)."""
        batches, gos, n, _ = E.collect_full_batches(factory, 8, costs=FAST)
        full = E.tcm_at_rate(batches, gos, n, "full")
        acc = {
            r: accuracy(E.tcm_at_rate(batches, gos, n, r), full, "abs")
            for r in (16, 4, 1)
        }
        assert acc[16] >= acc[1] - 0.05
        assert acc[16] > 0.9
        assert acc[4] > 0.8

    def test_relative_accuracy_tracks_absolute(self):
        """The adaptive controller's working assumption (Section II.B.2):
        relative accuracy is a usable proxy for absolute accuracy."""
        curves = E.accuracy_curves(factory, 8, rates=(64, 16, 4, 1), costs=FAST)
        for rel, ab in zip(curves.relative_abs, curves.absolute_abs):
            assert abs(rel - ab) < 0.15


class TestPlacementPipeline:
    def test_profile_drives_correct_placement(self):
        """TCM -> partitioner recovers the ground-truth thread groups."""
        run = E.run_with_correlation(factory, 8, rate=4, costs=FAST)
        wl = run.workload
        tcm = run.suite.tcm()
        assignment = refine_partition(tcm, greedy_partition(tcm, 4))
        # Every group of 4 threads must land on one node.
        for g in range(4):
            nodes = {assignment[t] for t in range(g * 4, (g + 1) * 4)}
            assert len(nodes) == 1, f"group {g} split across {nodes}"
        quality = partition_quality(wl.true_tcm(), assignment)
        assert quality["local_fraction"] == 1.0

    def test_sampled_profile_places_as_well_as_full(self):
        """The economic claim: a cheap sampled profile yields the same
        placement quality as the expensive full profile."""
        full = E.run_with_correlation(factory, 8, rate="full", costs=FAST)
        sampled = E.run_with_correlation(factory, 8, rate=2, costs=FAST)
        truth = full.workload.true_tcm()

        def quality(run):
            tcm = run.suite.tcm()
            assignment = refine_partition(tcm, greedy_partition(tcm, 4))
            return partition_quality(truth, assignment)["local_fraction"]

        assert quality(sampled) >= quality(full) - 1e-9
