"""Observer purity: telemetry must never perturb the simulation.

Mirrors the sanitizer/race-detector byte-identity gates: the run
fingerprint must be equal with no telemetry view, with ``Telemetry``'s
collectors bound to the run's registry and snapshotted, and with a span
tracer attached as well — on all three tracked workloads.
"""

import pytest

from repro.analysis.experiments import run_with_correlation
from repro.obs import SpanTracer, Telemetry
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.runtime.djvm import run_fingerprint
from repro.workloads.barnes_hut import BarnesHutWorkload
from repro.workloads.sor import SORWorkload
from repro.workloads.water_spatial import WaterSpatialWorkload

WORKLOADS = {
    "sor": lambda: SORWorkload(n=128, rounds=2, n_threads=4, seed=11),
    "barnes-hut": lambda: BarnesHutWorkload(n_bodies=96, rounds=2, n_threads=4, seed=11),
    "water-spatial": lambda: WaterSpatialWorkload(n_molecules=32, rounds=2, n_threads=4, seed=11),
}

def _run(workload_key: str, traced: bool = False):
    observers = (SpanTracer(),) if traced else ()
    return run_with_correlation(
        WORKLOADS[workload_key], n_nodes=4, rate=4, send_oals=True, observers=observers
    )


def _fingerprint(run) -> dict:
    return run_fingerprint(run.djvm, run.result, run.suite)


@pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
@pytest.mark.parametrize("mode", ["metrics", "full"])
def test_telemetry_does_not_perturb_results(workload_key, mode):
    off = _fingerprint(_run(workload_key))
    run = _run(workload_key, traced=mode == "full")
    Telemetry(run.djvm).snapshot()  # collectors run on live engine state
    assert _fingerprint(run) == off


def test_snapshots_identical_across_identical_runs():
    a = Telemetry(_run("sor", traced=True).djvm).snapshot()
    b = Telemetry(_run("sor", traced=True).djvm).snapshot()
    assert a == b
    assert list(a) == sorted(a)  # deterministic ordering contract


def test_metrics_agree_with_legacy_counters():
    run = _run("sor")
    telemetry = Telemetry(run.djvm)
    reg = run.djvm.hlrc.metrics
    assert telemetry.registry is reg  # one registry per run
    counters = run.result.counters
    assert reg.value("hlrc_faults_total") == counters["faults"]
    assert reg.value("hlrc_diffs_total") == counters["diffs"]
    assert reg.value("hlrc_intervals_total") == counters["intervals"]
    snap = telemetry.snapshot()
    assert snap["network_gos_bytes"] == run.djvm.cluster.network.stats.gos_bytes
    assert snap["profiler_oal_logged"] == run.suite.access_profiler.total_logged


# ---------------------------------------------------------------------------
# trace structure on a real run (the ISSUE acceptance case: 2-node SOR)
# ---------------------------------------------------------------------------


def _sor_2node_traced():
    return run_with_correlation(
        lambda: SORWorkload(n=128, rounds=2, n_threads=4, seed=11),
        n_nodes=2,
        rate=4,
        send_oals=True,
        observers=(SpanTracer(),),
    )


def test_sor_trace_schema_valid():
    run = _sor_2node_traced()
    tracer = Telemetry(run.djvm).tracer
    assert tracer.spans  # really traced
    assert tracer.open_spans() == []  # every interval closed
    doc = chrome_trace(tracer)
    assert validate_chrome_trace(doc) == []


def _assert_nested(tracer, required):
    intervals = tracer.by_name("interval")
    assert intervals
    for name in required:
        assert tracer.by_name(name), f"expected {name} spans from this run"
    for name in ("fault", "diff", "oal_flush"):
        for child in tracer.by_name(name):
            assert any(parent.contains(child) for parent in intervals), (
                f"{name} span at [{child.begin_ns}, {child.end_ns}] on track "
                f"{child.track} not contained in any interval"
            )


def test_sor_trace_spans_nest_correctly():
    """Every fault/oal_flush span lies inside an interval span on the
    same thread track (SOR's home-placed writes produce no diffs)."""
    _assert_nested(Telemetry(_sor_2node_traced().djvm).tracer, ("fault", "oal_flush"))


def test_water_spatial_diff_spans_nest_correctly():
    tracer = Telemetry(_run("water-spatial", traced=True).djvm).tracer
    _assert_nested(tracer, ("fault", "diff", "oal_flush"))


def test_sor_trace_has_barrier_and_tcm_spans():
    run = _sor_2node_traced()
    run.suite.collector.tcm()  # fold pending batches -> tcm_window spans
    tracer = Telemetry(run.djvm).tracer
    assert tracer.by_name("barrier_wait")
    windows = tracer.by_name("tcm_window")
    assert windows
    # daemon windows are serialized: no overlap on the daemon track
    ordered = sorted(windows, key=lambda s: s.begin_ns)
    for a, b in zip(ordered, ordered[1:]):
        assert a.end_ns <= b.begin_ns
