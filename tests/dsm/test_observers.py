"""The single protocol-event stream: every counter is traceable to the
``ProtocolObserver`` calls that produced it, observers are pure, and
``attach`` guards the one list."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.checks.racedetect import RaceDetector
from repro.checks.sanitizer import ProtocolSanitizer
from repro.core.profiler import ProfilerSuite
from repro.dsm.observer import ProtocolObserver
from repro.obs.objprof import ObjectProfiler
from repro.obs.tracing import SpanTracer
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.workloads.barnes_hut import BarnesHutWorkload
from repro.workloads.sor import SORWorkload
from repro.workloads.water_spatial import WaterSpatialWorkload

from tests.conftest import compile_hot

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

    def on_interval_open(self, thread):
        key = (thread.thread_id, thread.current_interval.interval_id)
        assert key not in self.open_intervals
        self.open_intervals.add(key)
        self.calls["interval_open"] += 1

    def on_interval_close(self, thread, interval):
        self.open_intervals.remove((thread.thread_id, interval.interval_id))
        self.calls["interval_close"] += 1

    def on_access(self, thread, obj_id, is_write, record, obj, faulted):
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


def run(name: str, replay: str, observers=(), *, profiled: bool = True):
    djvm = DJVM(N_NODES, replay=replay)
    for observer in observers:
        djvm.attach(observer)
    workload = WORKLOADS[name]()
    workload.build(djvm)
    suite = None
    if profiled:
        suite = ProfilerSuite(djvm, correlation=True)
        suite.set_rate_all(4)
    result = djvm.run(compile_hot(workload.programs(), replay))
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
# (b) all shipped observers together leave the run byte-identical
# ---------------------------------------------------------------------------


def fingerprint(djvm, result, suite) -> tuple:
    traffic = result.traffic.bytes_by_kind
    return (
        tuple(sorted(result.counters.items())),
        tuple(sorted(result.thread_finish_ms.items())),
        tuple(sorted((kind.value, n) for kind, n in traffic.items())),
        hashlib.sha256(suite.tcm().tobytes()).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_all_shipped_observers_together_are_pure(name):
    shipped = [ProtocolSanitizer(), RaceDetector(), SpanTracer(), ObjectProfiler()]
    observed = fingerprint(*run(name, "vector", shipped))
    assert observed == fingerprint(*run(name, "vector"))
    sanitizer, detector, tracer, objprof = shipped
    # each of them really watched the run
    assert sanitizer.checks_run > 0 and sanitizer.violations == 0
    assert detector.accesses_checked > 0 and detector.reports == []
    assert tracer.by_name("fault") and tracer.open_spans() == []
    assert objprof.records and objprof.intervals > 0


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


def test_attach_rejects_non_observers():
    class LooksLikeOne:
        def on_fault(self, *args):
            pass

    djvm = DJVM(2)
    with pytest.raises(TypeError, match="ProtocolObserver"):
        djvm.attach(LooksLikeOne())
    assert djvm.hlrc.observers == []
