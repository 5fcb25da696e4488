"""Object-centric inefficiency profiler: lifetime folding, pattern
detectors and the ranked report."""

from types import SimpleNamespace

import pytest

from repro.obs.__main__ import (
    OBJPROF_GATE_NODES,
    OBJPROF_GATE_RATE,
    _fingerprint_drift,
    _run,
    build_objprof_report,
)
from repro.obs.objprof import ObjectProfiler
from repro.obs.patterns import PATTERNS, detect_object_patterns
from repro.sim.costs import CostModel
from repro.sim.network import Network


def _thread(node_id: int, thread_id: int):
    return SimpleNamespace(node_id=node_id, thread_id=thread_id)


def _summaries(accesses: dict):
    """obj_id -> (reads, writes) into the interval-summary shape."""
    return {obj_id: SimpleNamespace(reads=r, writes=w) for obj_id, (r, w) in accesses.items()}


def _obj(obj_id=7, size=128, home=0, site="s"):
    return SimpleNamespace(
        obj_id=obj_id,
        size_bytes=size,
        home_node=home,
        site=site,
        jclass=SimpleNamespace(name="C"),
    )


class TestLifetimeFolding:
    def test_fault_refault_and_per_node_counts(self):
        prof = ObjectProfiler()
        obj = _obj()
        prof.on_fault(_thread(1, 0), obj, False, 0, 1)
        prof.on_fault(_thread(2, 1), obj, False, 0, 1)
        prof.on_fault(_thread(1, 0), obj, True, 0, 1)
        rec = prof.records[7]
        assert rec.faults == 3
        assert rec.refaults == 1
        assert rec.faults_by_node == {1: 2, 2: 1}

    def test_dead_transfer_is_epoch_closed_with_zero_reads(self):
        prof = ObjectProfiler()
        prof.on_fault(_thread(1, 0), _obj(), False, 0, 1)  # copy in, never read
        prof.on_invalidations(_thread(1, 0), [7])
        assert prof.records[7].dead_transfers == 1
        assert prof.records[7].invalidations == 1

    def test_read_before_invalidation_is_not_dead(self):
        prof = ObjectProfiler()
        prof.on_fault(_thread(1, 0), _obj(), False, 0, 1)
        prof.on_summaries(_thread(1, 0), None, _summaries({7: (3, 0)}))
        prof.on_invalidations(_thread(1, 0), [7])
        assert prof.records[7].dead_transfers == 0
        assert prof.records[7].reads_by_node == {1: 3}

    def test_invalidation_on_other_node_keeps_epoch_open(self):
        prof = ObjectProfiler()
        prof.on_fault(_thread(1, 0), _obj(), False, 0, 1)
        prof.on_invalidations(_thread(2, 0), [7])  # a different node's copy dies
        assert prof.records[7].dead_transfers == 0

    def test_writer_alternations_count_node_changes(self):
        prof = ObjectProfiler()
        for node, tid in ((0, 0), (1, 1), (0, 0), (0, 0), (2, 2)):
            prof.on_summaries(_thread(node, tid), None, _summaries({7: (0, 1)}))
        rec = prof.records[7]
        assert rec.writer_nodes == {0, 1, 2}
        assert rec.writer_threads == {0, 1, 2}
        # 0 -> 1 -> 0 -> (0 stays) -> 2
        assert rec.writer_alternations == 3

    def test_phases_span_barrier_releases(self):
        prof = ObjectProfiler()
        prof.on_summaries(_thread(0, 0), None, _summaries({7: (1, 0)}))
        prof.on_barrier_release(0, 2, [0, 1], 1_000, {})
        prof.on_barrier_release(0, 2, [0, 1], 2_000, {})
        prof.on_summaries(_thread(0, 0), None, _summaries({7: (1, 0)}))
        rec = prof.records[7]
        assert (rec.first_phase, rec.last_phase) == (0, 2)
        assert prof.phase == 2
        assert prof.phase_release_ns == [1_000, 2_000]

    def test_oal_batch_accumulates_ht_mass(self):
        prof = ObjectProfiler()
        entries = [
            SimpleNamespace(obj_id=7, scaled_bytes=512),
            SimpleNamespace(obj_id=7, scaled_bytes=256),
        ]
        prof.on_oal_flush(_thread(0, 0), SimpleNamespace(entries=entries), 0)
        assert prof.records[7].ht_bytes == 768


class TestPatternDetectors:
    costs = CostModel()
    network = Network()

    def _detect(self, prof, obj):
        return detect_object_patterns(prof.records[obj.obj_id], obj, self.costs, self.network)

    def test_ping_pong_fires_on_one_cross_node_handoff(self):
        prof = ObjectProfiler()
        obj = _obj()
        prof.on_summaries(_thread(0, 0), None, _summaries({7: (0, 1)}))
        prof.on_summaries(_thread(1, 1), None, _summaries({7: (0, 1)}))
        found = self._detect(prof, obj)
        assert [f.pattern for f in found] == ["ping-pong"]
        assert found[0].wasted_ns > 0

    def test_single_node_writers_never_ping_pong(self):
        prof = ObjectProfiler()
        obj = _obj()
        for _ in range(4):
            prof.on_summaries(_thread(0, 0), None, _summaries({7: (0, 1)}))
        assert self._detect(prof, obj) == []

    def test_dead_transfer_priced_per_dead_copy(self):
        prof = ObjectProfiler()
        obj = _obj()
        for node in (1, 2):
            prof.on_fault(_thread(node, node), obj, False, 0, 1)
            prof.on_invalidations(_thread(node, 0), [7])
        found = [f for f in self._detect(prof, obj) if f.pattern == "dead-transfer"]
        assert len(found) == 1
        assert found[0].wasted_ns > 0
        assert "2" in found[0].detail

    def test_over_invalidated_needs_read_mostly_and_refaults(self):
        prof = ObjectProfiler()
        obj = _obj()
        prof.on_fault(_thread(1, 1), obj, False, 0, 1)
        prof.on_summaries(_thread(1, 1), None, _summaries({7: (10, 0)}))
        prof.on_invalidations(_thread(1, 0), [7])
        prof.on_fault(_thread(1, 1), obj, True, 0, 1)  # refault
        prof.on_summaries(_thread(1, 1), None, _summaries({7: (10, 1)}))
        prof.on_invalidations(_thread(1, 0), [7])
        patterns = [f.pattern for f in self._detect(prof, obj)]
        assert "over-invalidated" in patterns

    def test_contended_home_names_dominant_remote_node(self):
        prof = ObjectProfiler()
        obj = _obj(home=0)
        prof.on_fault(_thread(2, 2), obj, False, 0, 1)
        prof.on_fault(_thread(2, 2), obj, True, 0, 1)
        prof.on_summaries(_thread(0, 0), None, _summaries({7: (1, 0)}))
        prof.on_summaries(_thread(1, 1), None, _summaries({7: (2, 0)}))
        prof.on_summaries(_thread(2, 2), None, _summaries({7: (9, 0)}))
        found = [f for f in self._detect(prof, obj) if f.pattern == "contended-home"]
        assert len(found) == 1
        assert found[0].target_node == 2

    def test_detectors_only_emit_known_patterns(self):
        prof = ObjectProfiler()
        obj = _obj()
        prof.on_fault(_thread(1, 1), obj, False, 0, 1)
        for f in self._detect(prof, obj):
            assert f.pattern in PATTERNS


@pytest.fixture(scope="module")
def water_spatial_runs():
    """One base run + one profiled run/report of check-scale Water-Spatial."""
    base = _run("water-spatial", OBJPROF_GATE_NODES, OBJPROF_GATE_RATE)
    profiled, report = build_objprof_report(
        "water-spatial", OBJPROF_GATE_NODES, OBJPROF_GATE_RATE
    )
    return base, profiled, report


class TestWaterSpatialReport:
    def test_profiler_on_run_is_byte_identical(self, water_spatial_runs):
        base, profiled, _report = water_spatial_runs
        assert _fingerprint_drift(base, profiled) == []

    def test_ranks_three_distinct_patterns_with_origins(self, water_spatial_runs):
        _base, _profiled, report = water_spatial_runs
        assert len(report.patterns_found) >= 3
        for finding in report.findings:
            assert ":" in finding.origin
            assert finding.origin.startswith("repro/workloads/water_spatial.py")
        # ranked by descending wasted ns
        wasted = [f.wasted_ns for f in report.findings]
        assert wasted == sorted(wasted, reverse=True)

    def test_report_json_is_deterministic(self, water_spatial_runs):
        _base, _profiled, report = water_spatial_runs
        _again, report2 = build_objprof_report(
            "water-spatial", OBJPROF_GATE_NODES, OBJPROF_GATE_RATE
        )
        assert report.to_json() == report2.to_json()

    def test_render_mentions_sites_and_patterns(self, water_spatial_runs):
        _base, _profiled, report = water_spatial_runs
        text = report.render(top=5)
        assert "object-centric inefficiency report" in text
        assert "ws.coords" in text
        assert "water_spatial.py:" in text
