"""Tests for interval bookkeeping."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.intervals import AccessSummary, IntervalHistory, IntervalRecord
from repro.runtime.djvm import DJVM
from repro.runtime.thread import SimThread
from repro.sim.costs import CostModel
from repro.workloads.barnes_hut import BarnesHutWorkload
from repro.workloads.sor import SORWorkload
from repro.workloads.water_spatial import WaterSpatialWorkload

from tests.conftest import simple_class


def fold(accesses) -> dict[int, AccessSummary]:
    """Feed ``(obj_id, is_write, repeat, clock)`` accesses of thread 0
    to an :class:`IntervalHistory` and return the closed interval's
    summaries."""
    history = IntervalHistory()
    thread = SimThread(0, 0)
    for obj_id, is_write, repeat, now_ns in accesses:
        thread.clock.advance_to(now_ns)
        history.on_access(thread, obj_id, is_write, repeat, None, None, False)
    history.on_interval_close(thread, IntervalRecord(0, 1))
    return history.summaries[0][-1]


class TestIntervalRecord:
    def test_touch_accumulates(self):
        s = fold([(5, False, 3, 10), (5, True, 2, 20)])[5]
        assert s.reads == 3
        assert s.writes == 2
        assert s.total == 5
        assert (s.first_ns, s.last_ns) == (10, 20)

    def test_written_set(self):
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        cls = simple_class(djvm, "Obj", 64)
        a, b = (djvm.allocate(cls, home_node=0).obj_id for _ in range(2))
        thread = djvm.spawn_thread(0)
        djvm.hlrc.open_interval(thread)
        djvm.hlrc.access(thread, a, False)
        djvm.hlrc.access(thread, b, True)
        assert thread.current_interval.written == {b}
        assert thread.current_interval.touched == {a, b}

    def test_first_access_order_preserved(self):
        assert list(fold([(oid, False, 1, 0) for oid in (9, 3, 7, 3)])) == [9, 3, 7]

    def test_duration(self):
        iv = IntervalRecord(0, 1, start_ns=100)
        iv.end_ns = 300
        assert iv.duration_ns == 200
        iv.end_ns = 50
        assert iv.duration_ns == 0


N_OBJECTS = 6
access_ops = st.lists(
    st.tuples(
        st.integers(0, N_OBJECTS - 1),  # which object
        st.booleans(),  # is_write
        st.integers(1, 9),  # repeat
    ),
    max_size=40,
)


class Columns:
    """Reference fold: four ``obj_id -> int`` columns sharing one key
    set in first-touch order, written by :meth:`touch`."""

    def __init__(self) -> None:
        self.reads: dict[int, int] = {}
        self.writes: dict[int, int] = {}
        self.first_ns: dict[int, int] = {}
        self.last_ns: dict[int, int] = {}
        self.written: set[int] = set()

    def touch(self, obj_id: int, *, is_write: bool, count: int, now_ns: int) -> None:
        """Record ``count`` accesses to ``obj_id`` at thread time ``now_ns``."""
        if obj_id not in self.reads:
            self.reads[obj_id] = 0
            self.writes[obj_id] = 0
            self.first_ns[obj_id] = now_ns
        if is_write:
            self.writes[obj_id] += count
            self.written.add(obj_id)
        else:
            self.reads[obj_id] += count
        self.last_ns[obj_id] = now_ns

    def rows(self) -> list[tuple[int, int, int, int, int]]:
        return [
            (oid, self.reads[oid], self.writes[oid], self.first_ns[oid], self.last_ns[oid])
            for oid in self.reads
        ]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(ops=access_ops)
def test_hlrc_access_and_touch_build_the_same_columns(ops):
    """The :class:`AccessSummaries` fold equals a reference fold over
    the same accesses: random READ/WRITE sequences with repeats (home
    and remotely-homed objects, so faults and twins move the clock)
    leave equal summaries, in equal first-touch order; the engine's
    written set equals the reference's and its touched set the
    summaries' ids."""
    djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
    history = djvm.attach(IntervalHistory())
    cls = simple_class(djvm, "Obj", 64)
    oids = [djvm.allocate(cls, home_node=i % 2).obj_id for i in range(N_OBJECTS)]
    thread = djvm.spawn_thread(0)
    djvm.hlrc.open_interval(thread)
    reference = Columns()
    for k, is_write, repeat in ops:
        djvm.hlrc.access(thread, oids[k], is_write, 1, repeat)
        # No hook is attached, so the clock still reads the access instant.
        reference.touch(oids[k], is_write=is_write, count=repeat, now_ns=thread.clock.now_ns)
    live = djvm.hlrc.close_interval(thread, "end")
    summaries = history.summaries[thread.thread_id][-1]
    assert [
        (s.obj_id, s.reads, s.writes, s.first_ns, s.last_ns) for s in summaries.values()
    ] == reference.rows()
    assert live.written == reference.written
    assert live.touched == summaries.keys()


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
    summaries (from the history, beside each record) hash to the
    pinned digest."""
    factory, n_intervals, digest = HISTORY_PARITY[name]
    djvm = DJVM(4)
    history = djvm.attach(IntervalHistory())
    workload = factory()
    workload.build(djvm)
    result = djvm.run(workload.programs())
    rows = [
        (
            iv.thread_id, iv.interval_id, iv.start_pc, iv.end_pc, iv.start_ns, iv.end_ns,
            iv.close_reason,
            tuple((oid, s.reads) for oid, s in summaries.items()),
            tuple((oid, s.writes) for oid, s in summaries.items()),
        )
        for tid, intervals in sorted(history.by_thread.items())
        for iv, summaries in zip(intervals, history.summaries[tid])
    ]
    assert len(rows) == n_intervals == result.counters["intervals"]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
