"""Tests for the distributed TCM computation extension."""

import numpy as np
import pytest

from repro.core.collector import CorrelationCollector
from repro.core.distributed import DistributedCorrelationCollector
from repro.core.oal import OALBatch
from repro.sim.cluster import Cluster


def batch(tid, entries, interval=1):
    b = OALBatch(thread_id=tid, interval_id=interval)
    for oid, size in entries:
        b.add(oid, size, class_id=0)
    return b


def feed(collector, n_threads=8, n_objects=64):
    rng = np.random.default_rng(1)
    for t in range(n_threads):
        objs = rng.choice(n_objects, size=20, replace=False)
        collector.deliver(batch(t, [(int(o), 64) for o in objs]))


class TestEquivalence:
    def test_identical_tcm_to_centralized(self):
        """Object partitioning is exact: the distributed map equals the
        centralized one."""
        central = CorrelationCollector(8, Cluster(4))
        distributed = DistributedCorrelationCollector(8, Cluster(4))
        feed(central)
        feed(distributed)
        assert np.allclose(central.tcm(), distributed.tcm())

    def test_windowed_equivalence(self):
        central = CorrelationCollector(4, Cluster(4), window_batches=2)
        distributed = DistributedCorrelationCollector(4, Cluster(4), window_batches=2)
        for col in (central, distributed):
            col.deliver(batch(0, [(1, 10), (2, 10)]))
            col.deliver(batch(1, [(1, 10)]))
            col.deliver(batch(2, [(2, 10)]))
            col.deliver(batch(3, [(9, 10)]))
        assert np.allclose(central.tcm(), distributed.tcm())


class TestCostModel:
    def test_wall_time_below_aggregate(self):
        distributed = DistributedCorrelationCollector(8, Cluster(8))
        feed(distributed, n_objects=512)
        distributed.tcm()
        assert 0 < distributed.tcm_compute_wall_ns < distributed.tcm_compute_ns
        assert distributed.tcm_compute_ns / distributed.tcm_compute_wall_ns > 1.5

    def test_speedup_grows_with_nodes(self):
        def wall(n_nodes):
            col = DistributedCorrelationCollector(8, Cluster(n_nodes))
            feed(col, n_objects=512)
            col.tcm()
            return col.tcm_compute_wall_ns

        assert wall(8) < wall(2)

    def test_every_owner_charged(self):
        cluster = Cluster(4)
        col = DistributedCorrelationCollector(8, cluster)
        feed(col, n_objects=64)
        col.tcm()
        charged = [
            n.node_id
            for n in cluster.nodes
            if n.cpu.extra.get("tcm_compute_ns", 0) > 0
        ]
        assert len(charged) == 4

    def test_scatter_and_reduce_traffic_accounted(self):
        cluster = Cluster(4)
        col = DistributedCorrelationCollector(8, cluster)
        feed(col)
        col.tcm()
        # OAL-kind traffic flows master->owners and owners->master.
        assert cluster.network.stats.oal_bytes > 0

    def test_single_node_degenerates_to_centralized_cost(self):
        """On one node, wall time ~= aggregate (no parallelism, only the
        merge overhead differs)."""
        col = DistributedCorrelationCollector(4, Cluster(1))
        feed(col, n_threads=4)
        col.tcm()
        assert col.tcm_compute_ns / col.tcm_compute_wall_ns == pytest.approx(1.0, abs=0.05)

    def test_owner_hash_is_stable(self):
        col = DistributedCorrelationCollector(4, Cluster(4))
        assert col.owner_of(13) == 13 % 4
