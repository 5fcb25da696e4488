"""The single protocol-event stream: every counter is traceable to the
``ProtocolObserver`` calls that produced it, observers are pure, and
``attach`` guards the one list."""

from __future__ import annotations

import functools
import hashlib
import json
import time
from collections import Counter

import numpy as np
import pytest

from repro.checks.racedetect import RaceDetector
from repro.checks.sanitizer import ProtocolSanitizer
from repro.core.profiler import ProfilerSuite
from repro.dsm.intervals import IntervalHistory
from repro.dsm.observer import ProtocolObserver
from repro.dsm.states import HOME, INVALID, VALID
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


class SyncRecorder(ProtocolObserver):
    """Counts every sync-point transition it is shown.  It overrides
    neither ``on_access`` nor ``on_fault``, so it watches the one pass."""

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


class Recorder(SyncRecorder):
    """Also counts accesses and faults, which keeps the run on the
    scalar loop."""

    def on_access(self, thread, obj_id, is_write, repeat, state, obj, faulted):
        self.calls["access"] += 1

    def on_fault(self, thread, obj, refault, begin_ns, n_objects):
        assert begin_ns <= thread.clock.now_ns
        self.calls["fault"] += 1


def access_ops(djvm) -> int:
    return sum(
        1 for t in djvm.threads for code in t.program.codes if code in (P.OP_READ, P.OP_WRITE)
    )


def one_pass_runs(djvm) -> int:
    routing = djvm.replay_routing
    return routing["runs"] if routing else 0


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
    """On the scalar loop a recorder of accesses and faults too; on the
    one pass (which emits neither) the sync-point half."""
    rec = Recorder() if replay == "scalar" else SyncRecorder()
    djvm, result, suite = run(name, replay, [rec], profiled=profiled)
    counters = result.counters
    assert counters["faults"] > 0 and counters["intervals"] > 0
    if replay == "scalar":
        assert rec.calls["fault"] == counters["faults"]
        assert rec.calls["access"] == access_ops(djvm) > 0
    else:
        assert one_pass_runs(djvm) > 0
    assert rec.calls["diff"] == counters["diffs"]
    assert rec.calls["notice"] == counters["notices"]
    assert rec.calls["interval_close"] == counters["intervals"]
    assert rec.invalidated == counters["invalidations"]
    assert rec.calls["interval_open"] == rec.calls["interval_close"]
    assert rec.open_intervals == set()
    assert rec.calls["run_end"] == 1
    if profiled:
        assert rec.calls["oal_log"] == suite.access_profiler.total_logged > 0
        assert rec.calls["oal_flush"] == suite.access_profiler.total_batches > 0


def test_access_observer_sees_every_access_and_keeps_scalar():
    """Dispatch is derived from what the class overrides: ``on_access``
    reaches an observer that overrides it, and no one else, and such an
    observer keeps the run off the one pass (as one of ``on_fault``
    does)."""
    rec, sync = Recorder(), SyncRecorder()
    djvm, result, _ = run("sor", "vector", [rec, sync], profiled=False)
    assert rec.calls["access"] == access_ops(djvm) > 0
    assert rec.calls["fault"] == result.counters["faults"] > 0
    assert "access" not in sync.calls
    assert djvm.hlrc._on_access == [rec]
    assert djvm.replay_routing == dict.fromkeys(djvm.replay_routing, 0)

    class FaultsOnly(ProtocolObserver):
        def on_fault(self, thread, obj, refault, begin_ns, n_objects):
            pass

    djvm, _result, _ = run("sor", "vector", [FaultsOnly()], profiled=False)
    assert djvm.hlrc._on_access == []
    assert one_pass_runs(djvm) == 0
    djvm, _result, _ = run("sor", "vector", [SyncRecorder()], profiled=False)
    assert one_pass_runs(djvm) > 0


class EventLog(ProtocolObserver):
    """Logs every event but ``on_access`` and ``on_fault`` — the ones
    the one pass emits where the scalar loop does — by name, with its
    arguments less the clock readings."""

    def __init__(self) -> None:
        self.log: list[tuple] = []

    def on_suite_attach(self, suite):
        self.log.append(("suite_attach",))

    def on_interval_open(self, thread):
        self.log.append(("interval_open", thread.thread_id, thread.current_interval.interval_id))

    def on_diff(self, thread, obj_id, dirty, begin_ns):
        self.log.append(("diff", thread.thread_id, obj_id, dirty))

    def on_notice(self, thread, obj_id, version):
        self.log.append(("notice", thread.thread_id, obj_id, version))

    def on_interval_close(self, thread, interval):
        sets = sorted(interval.touched), sorted(interval.written)
        ends = interval.start_pc, interval.end_pc, interval.close_reason
        self.log.append(("interval_close", thread.thread_id, interval.interval_id, sets, ends))

    def on_apply_notices(self, thread, start, end):
        self.log.append(("apply_notices", thread.thread_id, start, end))

    def on_invalidations(self, thread, obj_ids):
        self.log.append(("invalidations", thread.thread_id, list(obj_ids)))

    def on_lock_acquire(self, thread, lock_id):
        self.log.append(("lock_acquire", thread.thread_id, lock_id))

    def on_lock_release(self, thread, lock_id):
        self.log.append(("lock_release", thread.thread_id, lock_id))

    def on_barrier_arrive(self, thread, barrier_id, parties):
        self.log.append(("barrier_arrive", thread.thread_id, barrier_id, parties))

    def on_barrier_resume(self, thread, barrier_id):
        self.log.append(("barrier_resume", thread.thread_id, barrier_id))

    def on_barrier_release(self, barrier_id, parties, waiters, release_ns, threads_by_id):
        self.log.append(("barrier_release", barrier_id, parties, list(waiters)))

    def on_migration(self, thread, result, begin_ns):
        self.log.append(("migration", thread.thread_id, result.to_node))

    def on_event_pop(self, kernel_now_ns, event):
        self.log.append(("event_pop", event.kind.name, event.actor))

    def on_run_end(self, threads):
        self.log.append(("run_end", [t.thread_id for t in threads]))

    def on_oal_log(self, thread, interval_id, obj_id):
        self.log.append(("oal_log", thread.thread_id, interval_id, obj_id))

    def on_oal_flush(self, thread, batch, begin_ns):
        columns = list(batch.obj_ids), list(batch.scaled_bytes), list(batch.class_ids)
        self.log.append(("oal_flush", thread.thread_id, batch.interval_id, columns))

    def on_tcm_window(self, master_node, begin_ns, duration_ns, entries, window_index):
        self.log.append(("tcm_window", master_node, duration_ns, entries, window_index))


@pytest.mark.parametrize("profiled", [False, True], ids=["bare", "profiled"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sync_point_events_are_the_same_on_both_routes(name, profiled):
    """An observer of everything but accesses and faults keeps the run
    on the one pass, and sees there the scalar loop's event sequence —
    closed intervals' touched sets included — bare (no hook books the
    touched set then), and with correlation, footprint and stack
    profiling attached."""
    logs = {}
    for replay in ("vector", "scalar"):
        log = EventLog()
        djvm = DJVM(N_NODES, replay=replay)
        djvm.attach(log)
        workload = WORKLOADS[name]()
        workload.build(djvm)
        if profiled:
            suite = ProfilerSuite(
                djvm, correlation=True, footprint=True, stack=True, window_batches=N_NODES
            )
            suite.set_rate_all(4)
        djvm.run(workload.programs())
        logs[replay] = log.log
        if replay == "vector":
            assert one_pass_runs(djvm) > 0
    kinds = {event[0] for event in logs["scalar"]}
    assert {"notice", "invalidations", "interval_close", "barrier_release"} <= kinds
    assert profiled == ({"oal_log", "oal_flush", "tcm_window"} <= kinds)
    assert logs["vector"] == logs["scalar"]


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
        assert detector.intervals_checked > 0 and detector.reports == []
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
    """Writes every cache copy of a noticed object (its fetched-version
    column)."""

    def on_notice(self, thread, obj_id, version):
        for heap in self._hlrc.heaps.values():
            if heap.state[obj_id] in (VALID, INVALID):
                heap.fetched[obj_id] -= 1


class NoticeViaBoundEngine(_Bound):
    """Publishes one extra notice block, of the first noticed object."""

    def on_notice(self, thread, obj_id, version):
        if self._hlrc is not None:
            self._hlrc.publish(np.array([obj_id], dtype=np.intp))
            self._hlrc = None


def _stale_copies(hlrc, obj_id):
    for heap in hlrc.heaps.values():
        if heap.state[obj_id] in (VALID, INVALID):
            heap.fetched[obj_id] -= 1


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


class HomeCopyViaBoundEngine(_Bound):
    def on_notice(self, thread, obj_id, version):
        for heap in self._hlrc.heaps.values():
            if heap.state[obj_id] == HOME:
                heap.fetched[obj_id] -= 1


class StateByteViaBoundEngine(_Bound):
    """Flips the state byte of every valid cache copy of a noticed
    object to INVALID, as a stray notice apply would."""

    def on_notice(self, thread, obj_id, version):
        for heap in self._hlrc.heaps.values():
            if heap.state[obj_id] == VALID:
                heap.state[obj_id] = INVALID


def test_an_observer_writing_a_home_copy_changes_the_fingerprint():
    """Home copies are columns like cache copies: a violator that writes
    one moves the copy fold (which reads every copy's fetched version),
    and one that invalidates copies behind the protocol's back moves the
    faults it causes, and trips the sanitizer."""
    assert "copies_sha256" in moved("water_spatial", [HomeCopyViaBoundEngine()])
    assert "counters" in moved("sor", [StateByteViaBoundEngine()])
    with pytest.raises(AssertionError, match="SAN003"):
        run("barnes_hut", "vector", [StateByteViaBoundEngine(), ProtocolSanitizer()])


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

    dirty = snapshot_run(lambda djvm: djvm.hlrc.publish(np.array([0], dtype=np.intp)))
    assert drift(snapshot_run(), dirty) == {"notices_sha256"}


# one mutation per fingerprint component, applied to a finished run: a
# future trim of the fingerprint fails the matching case
def _first_cache_copy(djvm):
    """``(heap, obj_id)`` of the first cache copy, by node then id."""
    return next(
        (heap, obj_id)
        for node_id, heap in sorted(djvm.hlrc.heaps.items())
        for obj_id in djvm.hlrc.copy_ids(node_id)
        if heap.state[obj_id] != HOME
    )


def _bump_thread_cpu_extra(djvm, result, suite):
    result.thread_cpu[0].extra["seeded"] = 1


def _bump_copy_state(djvm, result, suite):
    heap, obj_id = _first_cache_copy(djvm)
    heap.state[obj_id] = INVALID if heap.state[obj_id] == VALID else VALID


def _set_cache_copy(column: str, value):
    def mutate(djvm, result, suite):
        heap, obj_id = _first_cache_copy(djvm)
        if column == "fetched":
            heap.fetched[obj_id] = value
        else:
            heap.twins[obj_id] = value
    return mutate


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
    "copies_sha256.version": _set_cache_copy("fetched", -1),
    "copies_sha256.twin": _set_cache_copy("twins", [0, set()]),
    "copies_sha256.dirty": _set_cache_copy("twins", [7, {0}]),
    "notices_sha256": lambda d, r, s: d.hlrc.publish(np.array([0], dtype=np.intp)),
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
# (b'') the observer streams the gates read are pinned: the fingerprint
#       sees engine state, these digests see event order and clocks
# ---------------------------------------------------------------------------


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: ``python -m repro.obs report --workload W --json`` output digests, each
#: site ``origin`` cut to its file: moving a workload's allocating line
#: moves no event, count or clock, so it moves no digest.
REPORT_DIGESTS = {
    "sor": "6597b82d31263be868ddda28a9ba90f74e2e09ddf8138667065cbfd8943f7c91",
    "barnes-hut": "c6cde89fd1af9175c986636014d954162ed5c3ec8521905507cd100756e27d8c",
    "water-spatial": "384fcdfc344ec285e0e5a8a0f418a8e09a486052a0801a2f7a9388145c081d12",
}

#: the file each workload's report must attribute its sites to.
WORKLOAD_FILES = {
    "sor": "repro/workloads/sor.py",
    "barnes-hut": "repro/workloads/barnes_hut.py",
    "water-spatial": "repro/workloads/water_spatial.py",
}


@pytest.mark.parametrize("workload", sorted(REPORT_DIGESTS))
def test_objprof_report_json_is_pinned(workload):
    """The report folds the fault, diff and invalidation events: their
    ids, counts and clocks must survive any notice-log representation
    (digest of the CLI's JSON with each origin's line cut, newline
    included).  Every origin names a line of the workload's file."""
    from repro.obs.__main__ import build_objprof_report

    _run, report = build_objprof_report(workload, 2, 4)
    doc = report.to_json()
    rows = doc["sites"] + doc["findings"]
    assert rows
    for row in rows:
        path, line = row["origin"].rsplit(":", 1)
        assert path == WORKLOAD_FILES[workload] and int(line) > 0
        row["origin"] = path
    assert _sha256(json.dumps(doc, indent=1) + "\n") == REPORT_DIGESTS[workload]


def test_race_trace_and_diff_spans_are_pinned():
    """Water-Spatial's closes publish diffs and home notices in one
    interval: each diff's event comes right after its flush and the
    notices in log order, so the recorded notice clocks and the diff
    spans keep their values."""
    detector = RaceDetector(detect=False, keep_trace=True)
    tracer = SpanTracer()
    mixed = MixedCloses()
    run("water_spatial", "vector", [detector, tracer, mixed])
    assert mixed.mixed > 0
    spans = [
        (s.name, s.cat, s.node, s.track, s.begin_ns, s.end_ns, s.seq, s.args)
        for s in tracer.spans
    ]
    assert (len(detector.trace), len(spans)) == (223, 501)
    assert (
        _sha256(repr(detector.trace))
        == "4cd70320644c01e97fe5a3694ef57fb782e2c2aaf3d4dda40a47c56fc13756a8"
    )
    assert _sha256(repr(spans)) == "e8bbc14be6bbfb7ba46e3d737b20046c8fba08cbc6a8d6472a0a01a61b2568f4"


class MixedCloses(ProtocolObserver):
    """Counts closes that flushed a diff and also published a notice
    for an object they did not diff (a home copy)."""

    def __init__(self) -> None:
        self.diffed: set[int] = set()
        self.noticed: set[int] = set()
        self.mixed = 0

    def on_diff(self, thread, obj_id, dirty, begin_ns):
        self.diffed.add(obj_id)

    def on_notice(self, thread, obj_id, version):
        self.noticed.add(obj_id)

    def on_interval_close(self, thread, interval):
        if self.diffed and self.noticed - self.diffed:
            self.mixed += 1
        self.diffed, self.noticed = set(), set()


# ---------------------------------------------------------------------------
# (b') the footprinter's hook identities (a ProtocolHooks profiler: it
#      charges time, so its books must balance instead)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_footprinter_hook_identities(name):
    fingerprints = {}
    for replay in ("vector", "scalar"):
        rec = SyncRecorder()
        djvm, result, suite = run(name, replay, [rec], footprint=True)
        footprinter, costs = suite.footprinter, djvm.costs
        assert footprinter.tracked_accesses > 0
        assert sum(cpu.footprinting_ns for cpu in result.thread_cpu.values()) == (
            footprinter.tracked_accesses * (costs.gos_trap_ns + costs.footprint_track_ns)
        )
        for thread in djvm.threads:
            closed = rec.closed_by_thread[thread.thread_id]
            assert footprinter.footprint_intervals[thread.thread_id] == closed > 0
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
