"""Tests for the discrete-event kernel and network send validation."""

import pytest

from repro.sim.cluster import Cluster
from repro.sim.events import EventKind, EventLoop
from repro.sim.network import MessageKind, Network


class TestEventLoopOrdering:
    def test_pops_in_time_order(self):
        loop = EventLoop()
        loop.schedule(EventKind.SEGMENT_END, 30, actor=3)
        loop.schedule(EventKind.SEGMENT_END, 10, actor=1)
        loop.schedule(EventKind.SEGMENT_END, 20, actor=2)
        assert [loop.pop().actor for _ in range(3)] == [1, 2, 3]
        assert loop.pop() is None

    def test_equal_times_pop_in_schedule_order(self):
        """The (time_ns, seq) tie-break: producers that schedule several
        events at one instant get them back in scheduling order."""
        loop = EventLoop()
        for actor in (7, 5, 9):
            loop.schedule(EventKind.SEGMENT_END, 100, actor=actor)
        assert [loop.pop().actor for _ in range(3)] == [7, 5, 9]

    def test_now_ns_tracks_pops_monotonically(self):
        loop = EventLoop()
        loop.schedule(EventKind.TIMER_FIRE, 50)
        loop.schedule(EventKind.TIMER_FIRE, 10)
        loop.pop()
        assert loop.now_ns == 10
        loop.pop()
        assert loop.now_ns == 50

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            EventLoop().schedule(EventKind.SEGMENT_END, -1)


class TestEventLoopTrace:
    def test_trace_records_dispatched_events(self):
        loop = EventLoop(keep_trace=True)
        loop.schedule(EventKind.BARRIER_RELEASE, 40, actor=0)
        loop.schedule(EventKind.SEGMENT_END, 15, actor=2)
        while loop.pop() is not None:
            pass
        assert loop.trace == [(15, "SEGMENT_END", 2), (40, "BARRIER_RELEASE", 0)]

    def test_record_bypasses_heap(self):
        loop = EventLoop(keep_trace=True)
        loop.record(EventKind.TIMER_FIRE, 123, actor=4)
        assert loop.scheduled == 0
        assert loop.pop() is None
        assert loop.trace == [(123, "TIMER_FIRE", 4)]

    def test_trace_off_by_default(self):
        loop = EventLoop()
        loop.schedule(EventKind.SEGMENT_END, 1)
        loop.record(EventKind.TIMER_FIRE, 2)
        loop.pop()
        assert loop.trace == []


class TestSendValidation:
    def test_endpoints_validated_against_bound_cluster(self):
        net = Network()
        net.bind_cluster(4)
        with pytest.raises(ValueError, match="outside the bound cluster"):
            net.send(MessageKind.DIFF, 0, 7, 100)
        with pytest.raises(ValueError, match="outside the bound cluster"):
            net.send(MessageKind.DIFF, -1, 2, 100)

    def test_cluster_binds_its_network(self):
        cluster = Cluster(2)
        with pytest.raises(ValueError, match="outside the bound cluster"):
            cluster.network.send(MessageKind.LOCK, 0, 5, 32)

    def test_unbound_network_accepts_any_ids(self):
        net = Network()
        assert net.send(MessageKind.DIFF, 0, 99, 100) > 0
