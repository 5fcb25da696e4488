"""Tests for the interconnect model and traffic accounting."""

import pytest

from repro.sim.network import (
    GOS_KINDS,
    MessageKind,
    Network,
    RackTopology,
    TrafficStats,
)


class TestTransferTime:
    def test_latency_plus_serialization(self):
        net = Network(latency_ns=1000, bandwidth_bytes_per_s=1e9, header_bytes=0)
        # 1000 bytes at 1 GB/s = 1000 ns serialization.
        assert net.transfer_time_ns(1000) == 2000

    def test_header_bytes_counted(self):
        net = Network(latency_ns=0, bandwidth_bytes_per_s=1e9, header_bytes=100)
        assert net.transfer_time_ns(0) == 100

    def test_piggyback_skips_latency_and_header(self):
        net = Network(latency_ns=1000, bandwidth_bytes_per_s=1e9, header_bytes=100)
        assert net.transfer_time_ns(500, piggybacked=True) == 500

    def test_monotone_in_size(self):
        net = Network()
        assert net.transfer_time_ns(10_000) > net.transfer_time_ns(100)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Network().transfer_time_ns(-1)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            Network(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            Network(latency_ns=-5)


class TestSendAccounting:
    def test_local_messages_free_and_unrecorded(self):
        net = Network()
        assert net.send(MessageKind.DIFF, 1, 1, 4096) == 0
        assert net.stats.messages == 0

    def test_remote_messages_recorded(self):
        net = Network()
        t = net.send(MessageKind.DIFF, 0, 1, 4096)
        assert t > 0
        assert net.stats.messages == 1
        assert net.stats.bytes_by_kind[MessageKind.DIFF] == 4096

    def test_oal_vs_gos_split(self):
        net = Network()
        net.send(MessageKind.OBJECT_FETCH_DATA, 0, 1, 1000)
        net.send(MessageKind.LOCK, 0, 1, 32)
        net.send(MessageKind.OAL, 1, 0, 500)
        assert net.stats.gos_bytes == 1032
        assert net.stats.oal_bytes == 500
        assert net.stats.total_bytes == 1532

    def test_oal_not_in_gos_kinds(self):
        assert MessageKind.OAL not in GOS_KINDS
        assert MessageKind.OAL.is_profiling

    def test_piggyback_counted(self):
        net = Network(latency_ns=1000, bandwidth_bytes_per_s=1e9, header_bytes=100)
        assert net.send(MessageKind.OAL, 0, 1, 500, piggybacked=True) == 500
        assert net.stats.piggybacked_messages == 1

    def test_reset_stats(self):
        net = Network()
        net.send(MessageKind.DIFF, 0, 1, 10)
        net.reset_stats()
        assert net.stats.messages == 0


class TestTrafficStats:
    def test_bytes_for_multiple_kinds(self):
        net = Network()
        net.send(MessageKind.DIFF, 0, 1, 10)
        net.send(MessageKind.LOCK, 0, 1, 20)
        stats = net.stats
        assert stats.bytes_for(MessageKind.DIFF, MessageKind.LOCK) == 30
        assert stats.count_by_kind[MessageKind.DIFF] == 1

    def test_record_bulk_equals_per_message_fold(self):
        """``record_bulk`` folds what n real sends fold one by one."""
        sizes = [16, 80, 80, 4112, 16]
        net = Network()
        for size in sizes:
            net.send(MessageKind.OBJECT_FETCH_DATA, 1, 0, size)
        net.send(MessageKind.LOCK, 0, 1, 32)
        one_by_one = net.stats
        bulk = TrafficStats()
        bulk.record_bulk(MessageKind.OBJECT_FETCH_DATA, len(sizes), sum(sizes))
        bulk.record_bulk(MessageKind.LOCK, 1, 32)
        bulk.record_bulk(MessageKind.DIFF, 0, 0)
        assert bulk.messages == one_by_one.messages == 6
        assert bulk.bytes_by_kind == one_by_one.bytes_by_kind
        assert bulk.count_by_kind == one_by_one.count_by_kind
        # A zero count leaves no empty kind behind.
        assert MessageKind.DIFF not in bulk.bytes_by_kind


class TestMessagePrice:
    def test_send_returns_message_ns(self):
        net = Network(latency_ns=1000, bandwidth_bytes_per_s=3e9, header_bytes=7)
        for size in (0, 1, 16, 333, 4112):
            assert net.send(MessageKind.OBJECT_FETCH_DATA, 0, 1, size) == net.message_ns(size)
            # Truncated per message, never over a sum.
            assert net.message_ns(size) == 1000 + int((size + 7) / 3e9 * 1e9)

    def test_topology_needs_endpoints(self):
        net = Network(latency_ns=500, topology=RackTopology(2, intra_ns=100, cross_ns=900))
        wire = net.message_ns(64) - 500
        assert net.message_ns(64, 0, 1) == 100 + wire
        assert net.message_ns(64, 1, 2) == 900 + wire
        assert net.send(MessageKind.DIFF, 1, 2, 64) == net.message_ns(64, 1, 2)
