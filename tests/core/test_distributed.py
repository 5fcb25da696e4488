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


class TestFoldedEquivalence:
    def test_byte_identical_window_maps_and_costs(self):
        """Batches of many threads sharing objects, in several windows:
        every window map equals the centralized one byte for byte, and
        the per-owner entries and pairs are those of the window's
        entries split by owner."""
        rng = np.random.default_rng(7)
        central = CorrelationCollector(6, Cluster(3), window_batches=5)
        distributed = DistributedCorrelationCollector(6, Cluster(3), window_batches=5)
        windows = []
        for k in range(12):
            objs = rng.choice(400, size=int(rng.integers(0, 40)), replace=False)
            sizes = rng.choice([0, 8, 64, 4096], size=objs.size)
            b = batch(k % 6, [(int(o), int(s)) for o, s in zip(objs, sizes)], interval=k)
            if k % 5 == 0:
                windows.append([])
            windows[-1].append(b)
            central.deliver(b)
            distributed.deliver(b)
        assert central.tcm().tobytes() == distributed.tcm().tobytes()
        assert len(distributed.window_tcms) == len(windows) == 3
        for ours, theirs in zip(distributed.window_tcms, central.window_tcms):
            assert ours.tobytes() == theirs.tobytes()
        last = windows[-1]
        entries = [sum(o % 3 == owner for b in last for o in b.obj_ids) for owner in range(3)]
        threads = {}
        for b in last:
            for o in b.obj_ids:
                threads.setdefault(o, set()).add(b.thread_id)
        pairs = [
            sum(len(t) ** 2 for o, t in threads.items() if o % 3 == owner) for owner in range(3)
        ]
        costs = distributed.costs
        assert distributed.last_window_node_ns == {
            owner: entries[owner] * costs.tcm_reorg_ns_per_entry
            + pairs[owner] * costs.tcm_accrue_ns_per_pair
            for owner in range(3)
        }

    def test_reset_forgets_the_open_window(self):
        col = DistributedCorrelationCollector(2, Cluster(2))
        col.deliver(batch(0, [(1, 10), (2, 10)]))
        col.reset()
        col.deliver(batch(1, [(3, 10)]))
        col.tcm()
        costs = col.costs
        assert col.last_window_node_ns == {
            0: 0,
            1: costs.tcm_reorg_ns_per_entry + costs.tcm_accrue_ns_per_pair,
        }


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
