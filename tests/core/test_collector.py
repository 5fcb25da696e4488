"""Tests for the master-side correlation collector."""

import gc
import weakref

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


def make_collector(n_threads=2, window=None):
    cluster = Cluster(2)
    return CorrelationCollector(n_threads, cluster, window_batches=window), cluster


class TestDelivery:
    def test_counts(self):
        col, _ = make_collector()
        col.deliver(batch(0, [(1, 10), (2, 20)]))
        col.deliver(batch(1, [(1, 10)]))
        assert col.batches_received == 2
        assert col.entries_received == 3

    def test_tcm_on_demand(self):
        col, _ = make_collector()
        col.deliver(batch(0, [(1, 10)]))
        col.deliver(batch(1, [(1, 10)]))
        tcm = col.tcm()
        assert tcm[0, 1] == 10

    def test_invalid_thread_count_rejected(self):
        with pytest.raises(ValueError):
            CorrelationCollector(0, Cluster(1))


class TestWindows:
    def test_auto_window_processing(self):
        col, _ = make_collector(window=2)
        col.deliver(batch(0, [(1, 10)]))
        assert len(col.window_tcms) == 0
        col.deliver(batch(1, [(1, 10)]))
        assert len(col.window_tcms) == 1

    def test_windows_accrue(self):
        col, _ = make_collector(window=2)
        for _ in range(2):
            col.deliver(batch(0, [(1, 10)]))
            col.deliver(batch(1, [(1, 10)]))
        tcm = col.tcm()
        assert tcm[0, 1] == 20  # one contribution per window

    def test_same_window_dedup(self):
        """Within one window, repeated logs of an object by a thread
        count once."""
        col, _ = make_collector()
        col.deliver(batch(0, [(1, 10)], interval=1))
        col.deliver(batch(0, [(1, 10)], interval=2))
        col.deliver(batch(1, [(1, 10)], interval=1))
        assert col.tcm()[0, 1] == 10


class TestCostModelling:
    def test_compute_cost_charged_to_master(self):
        col, cluster = make_collector()
        col.deliver(batch(0, [(1, 10), (2, 10)]))
        col.deliver(batch(1, [(1, 10)]))
        col.process_window()
        assert col.tcm_compute_ns > 0
        assert cluster.master.cpu.extra["tcm_compute_ns"] == col.tcm_compute_ns
        assert col.tcm_compute_ms == col.tcm_compute_ns / 1e6

    def test_cost_grows_with_sharers(self):
        """O(M N^2): an object shared by all threads costs more to accrue
        than the same entries spread over private objects."""
        shared, _ = make_collector(n_threads=8)
        private, _ = make_collector(n_threads=8)
        for t in range(8):
            shared.deliver(batch(t, [(1, 10)]))
            private.deliver(batch(t, [(100 + t, 10)]))
        shared.process_window()
        private.process_window()
        assert shared.tcm_compute_ns > private.tcm_compute_ns

    def test_reset(self):
        col, _ = make_collector()
        col.deliver(batch(0, [(1, 10)]))
        col.process_window()
        col.reset()
        assert col.batches_received == 0
        assert col.tcm().sum() == 0
        assert col.tcm_compute_ns == 0

    def test_reset_drops_per_class_windows_and_the_delivery_clock(self):
        """``attach_per_class_controller`` reads ``window_class_tcms[-1]``:
        a map from before the reset must not be there to hand over."""
        col, _ = make_collector()
        col.track_per_class = True
        col.deliver(batch(0, [(1, 10)]), now_ns=100)
        col.process_window()
        assert len(col.window_tcms) == len(col.window_class_tcms) == 1
        assert col._last_deliver_ns == 100
        col.reset()
        assert col.window_tcms == [] and col.window_class_tcms == []
        assert col._last_deliver_ns == 0


class WeakBatch(OALBatch):
    """An OAL batch a weak reference can point at."""

    __slots__ = ("__weakref__",)


class TestRetention:
    """A collector folds each batch at its delivery and keeps no
    reference to it: only its sender may."""

    @pytest.mark.parametrize("per_class", [False, True])
    @pytest.mark.parametrize("kind", [CorrelationCollector, DistributedCorrelationCollector])
    def test_a_delivered_batch_dies_with_its_last_outside_reference(self, kind, per_class):
        col = kind(2, Cluster(2), window_batches=3)
        col.track_per_class = per_class
        refs = []
        for tid in (0, 1):
            b = WeakBatch(thread_id=tid, interval_id=1)
            b.add(1, 10, class_id=0)
            b.add(tid + 2, 20, class_id=1)
            refs.append(weakref.ref(b))
            col.deliver(b)
            del b
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert col.window_tcms == []
        assert col.tcm()[0, 1] == 10
        per_class_maps = per_class and kind is CorrelationCollector
        assert len(col.window_class_tcms) == int(per_class_maps)
