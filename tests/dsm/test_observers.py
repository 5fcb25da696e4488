"""The single protocol-event stream: every counter is traceable to the
``ProtocolObserver`` calls that produced it, observers are pure, and
``attach`` guards the one list."""

from __future__ import annotations

import functools
import time
from collections import Counter

import pytest

from repro.checks.racedetect import RaceDetector
from repro.checks.sanitizer import ProtocolSanitizer
from repro.core.profiler import ProfilerSuite
from repro.dsm.intervals import IntervalHistory
from repro.dsm.observer import ProtocolObserver
from repro.dsm.states import RealState
from repro.obs.objprof import ObjectProfiler
from repro.obs.tracing import SpanTracer
from repro.runtime import program as P
from repro.runtime.djvm import DJVM, run_fingerprint
from repro.sim.network import MessageKind
from repro.workloads.barnes_hut import BarnesHutWorkload
from repro.workloads.sor import SORWorkload
from repro.workloads.water_spatial import WaterSpatialWorkload

N_NODES = 4

WORKLOADS = {
    "sor": lambda: SORWorkload(n=128, rounds=2, n_threads=N_NODES, seed=3),
    "barnes_hut": lambda: BarnesHutWorkload(n_bodies=96, rounds=2, n_threads=N_NODES, seed=3),
    "water_spatial": lambda: WaterSpatialWorkload(
        n_molecules=64, rounds=2, n_threads=N_NODES, seed=3
    ),
}


class Recorder(ProtocolObserver):
    """Counts every transition it is shown."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.invalidated = 0
        self.open_intervals: set[tuple[int, int]] = set()
        self.closed_by_thread: Counter = Counter()

    def on_interval_open(self, thread):
        key = (thread.thread_id, thread.current_interval.interval_id)
        assert key not in self.open_intervals
        self.open_intervals.add(key)
        self.calls["interval_open"] += 1

    def on_interval_close(self, thread, interval):
        self.open_intervals.remove((thread.thread_id, interval.interval_id))
        self.closed_by_thread[thread.thread_id] += 1
        self.calls["interval_close"] += 1

    def on_access(self, thread, obj_id, is_write, repeat, record, obj, faulted):
        self.calls["access"] += 1

    def on_fault(self, thread, obj, refault, begin_ns, n_objects):
        assert begin_ns <= thread.clock.now_ns
        self.calls["fault"] += 1

    def on_diff(self, thread, obj_id, dirty, begin_ns):
        assert dirty > 0 and begin_ns <= thread.clock.now_ns
        self.calls["diff"] += 1

    def on_notice(self, thread, obj_id, version):
        self.calls["notice"] += 1

    def on_invalidations(self, thread, obj_ids):
        self.invalidated += len(obj_ids)

    def on_oal_log(self, thread, interval_id, obj_id):
        self.calls["oal_log"] += 1

    def on_oal_flush(self, thread, batch, begin_ns):
        self.calls["oal_flush"] += 1

    def on_run_end(self, threads):
        self.calls["run_end"] += 1


class PerOpRecorder(Recorder):
    per_op = True


def run(name: str, replay: str, observers=(), *, profiled: bool = True, footprint: bool = False):
    djvm = DJVM(N_NODES, replay=replay)
    for observer in observers:
        djvm.attach(observer)
    workload = WORKLOADS[name]()
    workload.build(djvm)
    suite = None
    if profiled:
        suite = ProfilerSuite(djvm, correlation=True, footprint=footprint)
        suite.set_rate_all(4)
    result = djvm.run(workload.programs())
    return djvm, result, suite


# ---------------------------------------------------------------------------
# (a) every counter equals the number of events that produced it
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profiled", [False, True], ids=["bare", "profiled"])
@pytest.mark.parametrize("replay", ["vector", "scalar"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_are_traceable_to_events(name, replay, profiled):
    rec = Recorder()
    djvm, result, suite = run(name, replay, [rec], profiled=profiled)
    counters = result.counters
    assert counters["faults"] > 0 and counters["intervals"] > 0
    assert rec.calls["fault"] == counters["faults"]
    assert rec.calls["diff"] == counters["diffs"]
    assert rec.calls["notice"] == counters["notices"]
    assert rec.calls["interval_close"] == counters["intervals"]
    assert rec.invalidated == counters["invalidations"]
    assert rec.calls["interval_open"] == rec.calls["interval_close"]
    assert rec.open_intervals == set()
    assert rec.calls["run_end"] == 1
    # not per_op: no per-access call, and vector replay stays eligible
    assert rec.calls["access"] == 0
    assert (djvm._interpreter._vector is not None) == (replay == "vector")
    if profiled:
        assert rec.calls["oal_log"] == suite.access_profiler.total_logged > 0
        assert rec.calls["oal_flush"] == suite.access_profiler.total_batches > 0


def test_per_op_observer_sees_every_access_and_forces_scalar():
    rec = PerOpRecorder()
    djvm, result, _ = run("sor", "vector", [rec], profiled=False)
    access_ops = sum(
        1
        for t in djvm.threads
        for op in t.program.ops
        if op[0] in (P.OP_READ, P.OP_WRITE)
    )
    assert rec.calls["access"] == access_ops > 0
    assert djvm._interpreter._vector is None


# ---------------------------------------------------------------------------
# (b) purity has one definition — run_fingerprint — and one proof: the
#     shipped observers leave it equal, every seeded violator moves it
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def baseline(name: str, replay: str) -> dict:
    """Fingerprint of the unobserved profiled run (shared, never mutated)."""
    return run_fingerprint(*run(name, replay))


def drift(before: dict, after: dict) -> set[str]:
    return {key for key in before if before[key] != after[key]}


def moved(name: str, observers, replay: str = "vector") -> set[str]:
    """Fingerprint components that differ from the unobserved run."""
    return drift(baseline(name, replay), run_fingerprint(*run(name, replay, observers)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_all_shipped_observers_together_are_pure(name):
    for replay in ("vector", "scalar"):
        shipped = [
            ProtocolSanitizer(), RaceDetector(), SpanTracer(), ObjectProfiler(), IntervalHistory()
        ]
        assert moved(name, shipped, replay) == set()
        sanitizer, detector, tracer, objprof, history = shipped
        # each of them really watched the run
        assert sanitizer.checks_run > 0 and sanitizer.violations == 0
        assert detector.accesses_checked > 0 and detector.reports == []
        assert tracer.by_name("fault") and tracer.open_spans() == []
        assert objprof.records and objprof.intervals > 0
        assert sum(map(len, history.by_thread.values())) == objprof.intervals
    assert baseline(name, "vector") == baseline(name, "scalar")


class ClockViaThread(ProtocolObserver):
    """Engine write through a callback argument."""

    def on_fault(self, thread, obj, refault, begin_ns, n_objects):
        thread.clock._now_ns += 1


class CpuBucketOnly(ProtocolObserver):
    """Charges a CPU bucket and nothing else: no clock, counter, byte
    of traffic or TCM cell moves — only ``thread_cpu`` can see it."""

    def on_diff(self, thread, obj_id, dirty, begin_ns):
        thread.cpu.protocol_ns += 1


class LockPathClock(ProtocolObserver):
    def on_lock_acquire(self, thread, lock_id):
        thread.clock._now_ns += 1


class HostTimeIntoClock(ProtocolObserver):
    def on_diff(self, thread, obj_id, dirty, begin_ns):
        thread.clock._now_ns += 1 + time.perf_counter_ns() % 2


class OalBatchMutation(ProtocolObserver):
    def on_oal_flush(self, thread, batch, begin_ns):
        for column in (batch.obj_ids, batch.scaled_bytes, batch.class_ids):
            column.pop()


class _Bound(ProtocolObserver):
    """Keeps the engine ``bind`` hands every observer."""

    def __init__(self) -> None:
        self._hlrc = None

    def bind(self, hlrc):
        self._hlrc = hlrc


class CopyViaBoundEngine(_Bound):
    def on_notice(self, thread, obj_id, version):
        for copies in self._hlrc._copies_by_node.values():
            if obj_id in copies:
                copies[obj_id].fetched_version -= 1


class NoticeViaBoundEngine(_Bound):
    def on_notice(self, thread, obj_id, version):
        self._hlrc.notices.append((obj_id, version))


def _stale_copies(hlrc, obj_id):
    for copies in hlrc._copies_by_node.values():
        if obj_id in copies:
            copies[obj_id].fetched_version -= 1


class CopyViaHelper(_Bound):
    def on_notice(self, thread, obj_id, version):
        _stale_copies(self._hlrc, obj_id)


#: violator -> (workload it is shown on, components that must move)
VIOLATORS = {
    ClockViaThread: ("sor", {"thread_finish_ms"}),
    CpuBucketOnly: ("water_spatial", {"thread_cpu"}),
    LockPathClock: ("barnes_hut", {"thread_finish_ms"}),  # the tree lock
    HostTimeIntoClock: ("water_spatial", {"thread_finish_ms"}),
    OalBatchMutation: ("sor", {"tcm_sha256"}),
    CopyViaBoundEngine: ("water_spatial", {"copies_sha256"}),
    NoticeViaBoundEngine: ("sor", {"notices_sha256"}),
    CopyViaHelper: ("barnes_hut", {"copies_sha256"}),
}


@pytest.mark.parametrize("violator", VIOLATORS, ids=lambda cls: cls.__name__)
def test_seeded_violator_changes_the_fingerprint(violator):
    name, must_move = VIOLATORS[violator]
    assert must_move <= moved(name, [violator()])


def test_cpu_bucket_violator_is_seen_by_thread_cpu_alone():
    """The regression the old 4-tuples (counters, finish times, traffic,
    TCM sha) had: a charge with no clock advance moved none of them."""
    assert moved("water_spatial", [CpuBucketOnly()]) == {"thread_cpu"}


def test_collector_lambda_writing_engine_state_changes_the_fingerprint():
    """Snapshot-time collectors (``register_collector``) are observers
    too: they run after the event kernel drained, on live engine state."""

    def snapshot_run(collector=None) -> dict:
        djvm = DJVM(N_NODES)
        workload = WORKLOADS["sor"]()
        workload.build(djvm)
        if collector is not None:
            djvm.hlrc.metrics.register_collector(lambda reg: collector(djvm))
        result = djvm.run(workload.programs())
        djvm.hlrc.metrics.snapshot()
        return run_fingerprint(djvm, result)

    dirty = snapshot_run(lambda djvm: djvm.hlrc.notices.append((0, 0)))
    assert drift(snapshot_run(), dirty) == {"notices_sha256"}


# one mutation per fingerprint component, applied to a finished run: a
# future trim of the fingerprint fails the matching case
def _first_cache_copy(djvm):
    return next(
        r
        for _node, heap in sorted(djvm.hlrc.heaps.items())
        for _oid, r in sorted(heap.copies.items())
        if not r.is_home
    )


def _bump_thread_cpu_extra(djvm, result, suite):
    result.thread_cpu[0].extra["seeded"] = 1


def _bump_copy_state(djvm, result, suite):
    record = _first_cache_copy(djvm)
    record.real_state = (
        RealState.INVALID if record.real_state is RealState.VALID else RealState.VALID
    )


COMPONENT_MUTATIONS = {
    "execution_time_ms": lambda d, r, s: setattr(r, "execution_time_ms", r.execution_time_ms + 1),
    "thread_finish_ms": lambda d, r, s: r.thread_finish_ms.update({0: -1.0}),
    "thread_cpu": lambda d, r, s: setattr(r.thread_cpu[1], "footprinting_ns", 1),
    "thread_cpu.extra": _bump_thread_cpu_extra,
    "counters": lambda d, r, s: r.counters.update(faults=r.counters["faults"] + 1),
    "traffic_bytes": lambda d, r, s: r.traffic.record_bulk(MessageKind.DIFF, 1, 1),
    "ops_executed": lambda d, r, s: setattr(r, "ops_executed", r.ops_executed + 1),
    "tcm_sha256": lambda d, r, s: s.collector._accrued.__setitem__((0, 1), -1.0),
    "copies_sha256.state": _bump_copy_state,
    "copies_sha256.version": lambda d, r, s: setattr(_first_cache_copy(d), "fetched_version", -1),
    "copies_sha256.twin": lambda d, r, s: setattr(_first_cache_copy(d), "has_twin", True),
    "copies_sha256.dirty": lambda d, r, s: setattr(_first_cache_copy(d), "dirty_bytes", 7),
    "notices_sha256": lambda d, r, s: d.hlrc.notices.pop(),
    "interval_counters": lambda d, r, s: setattr(d.threads[0], "interval_counter", 0),
}


@pytest.mark.parametrize("component", sorted(COMPONENT_MUTATIONS))
def test_each_fingerprint_component_is_load_bearing(component):
    djvm, result, suite = run("sor", "vector")
    before = run_fingerprint(djvm, result, suite)
    assert set(before) == {c.split(".")[0] for c in COMPONENT_MUTATIONS}
    COMPONENT_MUTATIONS[component](djvm, result, suite)
    after = run_fingerprint(djvm, result, suite)
    assert drift(before, after) == {component.split(".")[0]}


# ---------------------------------------------------------------------------
# (b') the footprinter's hook identities (a ProtocolHooks profiler: it
#      charges time, so its books must balance instead)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_footprinter_hook_identities(name):
    fingerprints = {}
    for replay in ("vector", "scalar"):
        rec = Recorder()
        djvm, result, suite = run(name, replay, [rec], footprint=True)
        footprinter, costs = suite.footprinter, djvm.costs
        assert footprinter.tracked_accesses > 0
        assert sum(cpu.footprinting_ns for cpu in result.thread_cpu.values()) == (
            footprinter.tracked_accesses * (costs.gos_trap_ns + costs.footprint_track_ns)
        )
        for thread in djvm.threads:
            closed = rec.closed_by_thread[thread.thread_id]
            assert len(footprinter.interval_footprints[thread.thread_id]) == closed > 0
        fingerprints[replay] = run_fingerprint(djvm, result, suite)
    assert fingerprints["vector"] == fingerprints["scalar"]


# ---------------------------------------------------------------------------
# (c) attach guards the one list
# ---------------------------------------------------------------------------


def test_attach_returns_the_observer_and_rejects_duplicates():
    djvm = DJVM(2)
    rec = Recorder()
    assert djvm.attach(rec) is rec
    assert djvm.hlrc.observers == [rec]
    with pytest.raises(ValueError, match="already attached"):
        djvm.attach(rec)
    djvm.attach(Recorder())  # a second instance of the same class is fine
    assert len(djvm.hlrc.observers) == 2


@pytest.mark.parametrize("late", [False, True], ids=["before_suite", "after_suite"])
def test_suite_is_announced_once_whichever_side_comes_first(late):
    class SuiteWatcher(ProtocolObserver):
        def __init__(self):
            self.suites = []

        def on_suite_attach(self, suite):
            self.suites.append(suite)

    djvm = DJVM(N_NODES)
    watcher = SuiteWatcher()
    if not late:
        djvm.attach(watcher)
    WORKLOADS["sor"]().build(djvm)
    suite = ProfilerSuite(djvm, correlation=True)
    if late:
        djvm.attach(watcher)
    assert watcher.suites == [suite]


def test_attach_rejects_non_observers():
    class LooksLikeOne:
        def on_fault(self, *args):
            pass

    djvm = DJVM(2)
    with pytest.raises(TypeError, match="ProtocolObserver"):
        djvm.attach(LooksLikeOne())
    assert djvm.hlrc.observers == []
