"""Tests for the happens-before race detector
(:mod:`repro.checks.racedetect`)."""

from __future__ import annotations

import pytest

from repro.checks.racedetect import DataRaceError, RaceDetector, replay_trace
from repro.runtime import program as P
from repro.runtime.djvm import DJVM, run_fingerprint
from repro.sim.costs import CostModel
from repro.workloads import RacyCounterWorkload

from tests.conftest import simple_class, wrap_main


#: the detector's three roles, by construction flags (None = no detector).
MODES = {
    None: lambda: None,
    "collect": RaceDetector,
    "raise": lambda: RaceDetector(raise_on_race=True),
    "record": lambda: RaceDetector(detect=False, keep_trace=True),
}


def attach_detector(djvm, mode):
    detector = MODES[mode]()
    return djvm.attach(detector) if detector is not None else None


def run_workload(wl, mode):
    djvm = DJVM(n_nodes=2)
    detector = attach_detector(djvm, mode)
    wl.build(djvm)
    return djvm, detector, djvm.run(wl.programs())


def run_counter(*, locked: bool, mode="collect", n_threads=2):
    wl = RacyCounterWorkload(n_threads=n_threads, locked=locked, seed=7)
    _djvm, detector, result = run_workload(wl, mode)
    return wl, detector, result


def two_thread_djvm():
    djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
    detector = djvm.attach(RaceDetector())
    cls = simple_class(djvm, "Obj", 64)
    obj = djvm.allocate(cls, home_node=0)
    djvm.spawn_thread(0)
    djvm.spawn_thread(1)
    return djvm, detector, obj


class TestSeededRace:
    def test_racy_counter_detected(self):
        wl, detector, _ = run_counter(locked=False)
        reports = detector.reports
        assert reports, "seeded race must be detected"
        counter = [r for r in reports if r.obj_id == wl.counter_id]
        assert counter, "race must be on the shared counter object"
        # Write-write and write-read orderings both exist in round one.
        kinds = {r.kind for r in counter}
        assert "write-write" in kinds

    def test_report_carries_both_sites_and_evidence(self):
        wl, detector, _ = run_counter(locked=False)
        report = detector.reports[0]
        text = report.render()
        assert "first: " in text and "second:" in text
        assert f"thread {report.first.thread_id}" in text
        assert f"thread {report.second.thread_id}" in text
        assert report.first.thread_id != report.second.thread_id
        assert "vector clock" in text  # the unordering evidence
        assert report.class_name == "Counter"

    def test_private_and_read_only_objects_never_reported(self):
        wl, detector, _ = run_counter(locked=False)
        flagged = {r.obj_id for r in detector.reports}
        assert wl.config_id not in flagged  # read-shared only
        assert not flagged.intersection(wl.scratch_ids)  # thread-private

    def test_raise_mode(self):
        with pytest.raises(DataRaceError) as exc:
            run_counter(locked=False, mode="raise")
        assert exc.value.report.kind in ("write-write", "write-read", "read-write")


class TestLockOrdering:
    def test_locked_counter_is_silent(self):
        _, detector, _ = run_counter(locked=True)
        assert detector.reports == []
        assert detector.intervals_checked > 0

    def test_locked_counter_raise_mode_completes(self):
        _, detector, result = run_counter(locked=True, mode="raise")
        assert result.ops_executed > 0


class TestBarrierOrdering:
    """Barrier-separated conflicting accesses are ordered — the
    false-positive regression the tracked workloads rely on."""

    def test_write_then_barrier_then_read(self):
        djvm, detector, obj = two_thread_djvm()
        djvm.run(
            {
                0: wrap_main([P.write(obj.obj_id), P.barrier(0), P.barrier(1)]),
                1: wrap_main([P.barrier(0), P.read(obj.obj_id), P.barrier(1)]),
            }
        )
        assert detector.reports == []

    def test_alternating_phases_stay_ordered(self):
        djvm, detector, obj = two_thread_djvm()
        djvm.run(
            {
                0: wrap_main(
                    [P.write(obj.obj_id), P.barrier(0), P.barrier(1), P.write(obj.obj_id), P.barrier(2)]
                ),
                1: wrap_main(
                    [P.barrier(0), P.read(obj.obj_id), P.barrier(1), P.barrier(2), P.read(obj.obj_id)]
                ),
            }
        )
        assert detector.reports == []

    def test_same_phase_conflict_is_reported(self):
        djvm, detector, obj = two_thread_djvm()
        djvm.run(
            {
                0: wrap_main([P.write(obj.obj_id), P.barrier(0)]),
                1: wrap_main([P.read(obj.obj_id), P.barrier(0)]),
            }
        )
        kinds = {r.kind for r in detector.reports}
        assert kinds, "same-phase write/read must race"
        assert kinds <= {"write-read", "read-write"}


class TestOfflineReplay:
    def test_online_and_offline_reports_match(self):
        _, online_det, _ = run_counter(locked=False, mode="collect")
        _, recorder, _ = run_counter(locked=False, mode="record")
        assert recorder.reports == []  # detection was off
        assert recorder.trace, "record mode must capture the operation trace"
        replayed = replay_trace(recorder.trace)
        online = [r.render() for r in online_det.reports]
        offline = [r.render() for r in replayed.reports]
        # Offline replay lacks the class-name resolver, so compare the
        # resolver-independent fields.
        assert len(online) == len(offline)
        for a, b in zip(online_det.reports, replayed.reports):
            assert (a.obj_id, a.kind, a.first, a.second) == (
                b.obj_id,
                b.kind,
                b.first,
                b.second,
            )

    def test_clean_trace_replays_clean(self):
        _, recorder, _ = run_counter(locked=True, mode="record")
        replayed = replay_trace(recorder.trace)
        assert replayed.reports == []
        assert replayed.intervals_checked > 0


class TestByteIdentity:
    """The detector is a pure observer: simulated results are identical
    with the detector off, collecting, or recording."""

    @staticmethod
    def fingerprint(mode, wl=None):
        wl = wl or RacyCounterWorkload(n_threads=2, locked=False, seed=7)
        djvm, _detector, result = run_workload(wl, mode)
        return run_fingerprint(djvm, result)

    def test_detector_modes_leave_results_identical(self):
        baseline = self.fingerprint(None)
        for mode in ("collect", "record"):
            assert self.fingerprint(mode) == baseline

    def test_detector_off_runs_are_reproducible(self):
        assert self.fingerprint(None) == self.fingerprint(None)

    def test_tracked_workload_identical_with_detector(self):
        from repro.workloads import SORWorkload

        def run(mode):
            return self.fingerprint(mode, SORWorkload(n=64, rounds=2, n_threads=2, seed=3))

        assert run(None) == run("collect")


class TestDetectorState:
    def test_reports_deduplicated_per_pair(self):
        """The racy counter races on every round, but each (object,
        thread pair, kind) is reported once."""
        _, detector, _ = run_counter(locked=False)
        seen = set()
        for r in detector.reports:
            key = (r.obj_id, r.first.thread_id, r.second.thread_id, r.kind)
            assert key not in seen
            seen.add(key)
