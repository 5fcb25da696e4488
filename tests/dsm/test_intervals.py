"""Tests for interval bookkeeping."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.intervals import AccessSummary, IntervalHistory, IntervalRecord
from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel
from repro.workloads.barnes_hut import BarnesHutWorkload
from repro.workloads.sor import SORWorkload
from repro.workloads.water_spatial import WaterSpatialWorkload

from tests.conftest import simple_class


class TestIntervalRecord:
    def test_touch_accumulates(self):
        iv = IntervalRecord(thread_id=0, interval_id=1)
        iv.touch(5, is_write=False, count=3, now_ns=10)
        iv.touch(5, is_write=True, count=2, now_ns=20)
        s = iv.accesses[5]
        assert s.reads == 3
        assert s.writes == 2
        assert s.total == 5
        assert (s.first_ns, s.last_ns) == (10, 20)

    def test_written_set(self):
        iv = IntervalRecord(0, 1)
        iv.touch(1, is_write=False, count=1, now_ns=0)
        iv.touch(2, is_write=True, count=1, now_ns=0)
        assert iv.written == {2}

    def test_first_access_order_preserved(self):
        iv = IntervalRecord(0, 1)
        for oid in (9, 3, 7):
            iv.touch(oid, is_write=False, count=1, now_ns=0)
        assert list(iv.accesses) == [9, 3, 7]

    def test_duration(self):
        iv = IntervalRecord(0, 1, start_ns=100)
        iv.end_ns = 300
        assert iv.duration_ns == 200
        iv.end_ns = 50
        assert iv.duration_ns == 0


class TestAccessView:
    def test_view_is_live_and_builds_summaries_on_demand(self):
        iv = IntervalRecord(0, 1)
        view = iv.accesses
        assert len(view) == 0 and 4 not in view and view.get(4) is None
        iv.touch(4, is_write=True, count=2, now_ns=7)
        assert list(view.items()) == [(4, AccessSummary(4, 0, 2, 7, 7))]
        assert 4 in view.keys() and list(view.values())[0].total == 2

    def test_summary_is_a_copy(self):
        iv = IntervalRecord(0, 1)
        iv.touch(4, is_write=False, count=1, now_ns=0)
        iv.accesses[4].reads = 99
        assert iv.accesses[4].reads == 1


N_OBJECTS = 6
access_ops = st.lists(
    st.tuples(
        st.integers(0, N_OBJECTS - 1),  # which object
        st.booleans(),  # is_write
        st.integers(1, 9),  # repeat
    ),
    max_size=40,
)


def columns(iv: IntervalRecord) -> list[tuple[int, int, int, int, int]]:
    """The accesses view flattened, in first-touch order; also checks
    that the four columns agree on that order."""
    keys = list(iv.reads)
    assert keys == list(iv.writes) == list(iv.first_ns) == list(iv.last_ns)
    assert keys == list(iv.accesses)
    return [
        (s.obj_id, s.reads, s.writes, s.first_ns, s.last_ns) for s in iv.accesses.values()
    ]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(ops=access_ops)
def test_hlrc_access_and_touch_build_the_same_columns(ops):
    """``HomeBasedLRC.access`` inlines ``IntervalRecord.touch``: random
    READ/WRITE sequences with repeats (home and remotely-homed objects,
    so faults and twins move the clock) leave equal summaries, in equal
    first-touch order, and equal written sets."""
    djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
    cls = simple_class(djvm, "Obj", 64)
    oids = [djvm.allocate(cls, home_node=i % 2).obj_id for i in range(N_OBJECTS)]
    thread = djvm.spawn_thread(0)
    djvm.hlrc.open_interval(thread)
    reference = IntervalRecord(thread.thread_id, thread.current_interval.interval_id)
    for k, is_write, repeat in ops:
        djvm.hlrc.access(thread, oids[k], is_write, 1, repeat)
        # No hook is attached, so the clock still reads the access instant.
        reference.touch(oids[k], is_write=is_write, count=repeat, now_ns=thread.clock.now_ns)
    live = thread.current_interval
    assert columns(live) == columns(reference)
    assert live.written == reference.written


#: workload -> (factory, intervals recorded, SHA-256 of the recorded
#: intervals).  The digests were computed with the engine's former
#: built-in history (``DJVM(keep_interval_history=True)``) before it
#: became this observer.
HISTORY_PARITY = {
    "sor": (
        lambda: SORWorkload(n=128, rounds=2, n_threads=4, seed=3),
        20,
        "29d70d115f9485777b12b4ac3aa7b55112f41d7a079dee613892d2d1e4a82bc9",
    ),
    "barnes_hut": (
        lambda: BarnesHutWorkload(n_bodies=96, rounds=2, n_threads=4, seed=3),
        44,
        "663cc23c0ec8c517d1e418ddaf2e52dd9df0b2bbfd1657588c5301b63f1b2117",
    ),
    "water_spatial": (
        lambda: WaterSpatialWorkload(n_molecules=64, rounds=2, n_threads=4, seed=3),
        20,
        "66788c58e00de593d16d52897e07e48481c3e65b4032b39a8a2c69f81a3ab89a",
    ),
}


@pytest.mark.parametrize("name", sorted(HISTORY_PARITY))
def test_interval_history_records_what_the_engine_closed(name):
    """Every closed interval, per thread in close order: thread, id,
    start/end pc and ns, close reason and the ``reads`` / ``writes``
    columns hash to the pinned digest."""
    factory, n_intervals, digest = HISTORY_PARITY[name]
    djvm = DJVM(4)
    history = djvm.attach(IntervalHistory())
    workload = factory()
    workload.build(djvm)
    result = djvm.run(workload.programs())
    rows = [
        (
            iv.thread_id, iv.interval_id, iv.start_pc, iv.end_pc, iv.start_ns, iv.end_ns,
            iv.close_reason, tuple(iv.reads.items()), tuple(iv.writes.items()),
        )
        for _tid, intervals in sorted(history.by_thread.items())
        for iv in intervals
    ]
    assert len(rows) == n_intervals == result.counters["intervals"]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
