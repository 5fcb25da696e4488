"""Tests for the SOR workload."""

import pytest

from repro.core.profiler import ProfilerSuite
from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel
from repro.workloads import SORWorkload


def build(n=64, rounds=2, n_threads=4, n_nodes=4):
    wl = SORWorkload(n=n, rounds=rounds, n_threads=n_threads)
    djvm = DJVM(n_nodes=n_nodes, costs=CostModel.fast_test())
    wl.build(djvm)
    return wl, djvm


class TestStructure:
    def test_row_objects_match_matrix(self):
        wl, djvm = build(n=64)
        assert len(wl.row_ids) == 64
        row = djvm.gos.get(wl.row_ids[0])
        assert row.is_array
        assert row.size_bytes >= 64 * 8

    def test_rows_homed_with_owners(self):
        wl, djvm = build(n=64, n_threads=4, n_nodes=4)
        for t in range(4):
            node = wl.node_of(t)
            for r in wl.rows_of(t):
                assert djvm.gos.get(wl.row_ids[r]).home_node == node

    def test_matrix_references_all_rows(self):
        wl, djvm = build()
        matrix = djvm.gos.get(wl.matrix_id)
        assert matrix.refs == wl.row_ids

    def test_row_partition_covers_disjointly(self):
        wl, _ = build(n=64, n_threads=4)
        seen = []
        for t in range(4):
            seen.extend(wl.rows_of(t))
        assert sorted(seen) == list(range(64))

    def test_spec(self):
        spec = SORWorkload(n=2048, rounds=10, n_threads=8).spec()
        assert spec.name == "SOR"
        assert spec.granularity == "Coarse"

    def test_too_many_threads_rejected(self):
        with pytest.raises(ValueError):
            SORWorkload(n=4, n_threads=8)


class TestExecution:
    def test_runs_to_completion(self):
        wl, djvm = build()
        res = djvm.run(wl.programs())
        assert res.execution_time_ms > 0
        # 2 rounds x 2 phases = 4 barrier episodes.
        assert djvm.hlrc.sync.barriers[0].episodes == 1
        assert len(djvm.hlrc.sync.barriers) == 4

    def test_tridiagonal_sharing_profile(self):
        """Threads share only with block neighbours — the TCM must be
        (block-)tridiagonal."""
        wl = SORWorkload(n=64, rounds=2, n_threads=4)
        djvm = DJVM(n_nodes=4, costs=CostModel.fast_test())
        wl.build(djvm)
        suite = ProfilerSuite(djvm, send_oals=False)
        suite.set_full_sampling()
        djvm.run(wl.programs())
        tcm = suite.tcm()
        # Every thread reads the matrix spine (the double[][] of row
        # references) once at startup, which puts a small uniform floor
        # under every pair; row sharing exists only between neighbours.
        spine = suite.djvm.gos.get(wl.matrix_id)
        floor = spine.length * spine.jclass.element_size
        for i in range(4):
            for j in range(4):
                if abs(i - j) == 1:
                    assert tcm[i, j] > floor, (i, j)
                elif i != j:
                    assert tcm[i, j] <= floor, (i, j)

    def test_boundary_faults_only(self):
        """Remote faults touch only neighbours' boundary rows."""
        wl, djvm = build(n=64, n_threads=4, n_nodes=4)
        res = djvm.run(wl.programs())
        # Each of the 3 thread boundaries faults 2 rows (one per side),
        # re-faulted per phase after invalidation; bounded well below a
        # full-matrix fetch.
        assert 0 < res.counters["faults"] < 64
