"""Tests for the interpreter/scheduler."""

import pytest

from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.runtime.thread import ThreadState
from repro.sim.costs import CostModel

from tests.conftest import simple_class, wrap_main


def one_thread_djvm():
    djvm = DJVM(n_nodes=1, costs=CostModel.fast_test())
    cls = simple_class(djvm)
    obj = djvm.allocate(cls, 0)
    djvm.spawn_thread(0)
    return djvm, obj


class TestBasicExecution:
    def test_compute_advances_clock(self):
        djvm, obj = one_thread_djvm()
        djvm.costs  # fast_test scale = 0.01
        djvm.run({0: wrap_main([P.compute(1_000_000)])})
        t = djvm.threads[0]
        assert t.cpu.compute_ns == 10_000
        assert t.state is ThreadState.DONE

    def test_call_ret_maintains_stack(self):
        djvm, obj = one_thread_djvm()
        captured = []

        class Spy:
            def next_fire_ns(self, thread):
                return 0  # every op boundary

            def maybe_fire(self, thread):
                captured.append(len(thread.stack))

        djvm.add_timer(Spy())
        djvm.run(
            {
                0: [
                    P.call("main", 2),
                    P.call("inner", 2),
                    P.ret(),
                    P.ret(),
                ]
            }
        )
        assert captured == [1, 2, 1, 0]
        assert len(djvm.threads[0].stack) == 0

    def test_setslot_mutates_top_frame(self):
        djvm, obj = one_thread_djvm()
        slots = []

        class Spy:
            def next_fire_ns(self, thread):
                return 0  # every op boundary

            def maybe_fire(self, thread):
                if thread.stack.top is not None:
                    slots.append(tuple(thread.stack.top.slots))

        djvm.add_timer(Spy())
        djvm.run({0: [P.call("main", 2), P.setslot(0, 42), P.ret()]})
        assert (42, None) in slots

    def test_setslot_without_frame_raises(self):
        djvm, obj = one_thread_djvm()
        with pytest.raises(RuntimeError, match="SETSLOT"):
            djvm.run({0: [P.setslot(0, 1)]})

    def test_unknown_opcode_raises(self):
        djvm, obj = one_thread_djvm()
        with pytest.raises(ValueError, match="unknown opcode"):
            djvm.run({0: [(99, 1)]})

    def test_pc_counts_ops(self):
        djvm, obj = one_thread_djvm()
        res = djvm.run({0: wrap_main([P.read(obj.obj_id), P.compute(1)])})
        assert res.ops_executed == 4
        assert djvm.threads[0].pc == 4


class TestScheduling:
    def test_min_clock_thread_runs_first_after_sync(self):
        """After a sync yield, the thread with the smaller clock resumes."""
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        cls = simple_class(djvm)
        obj = djvm.allocate(cls, 0)
        djvm.spawn_thread(0)
        djvm.spawn_thread(1)
        order = []

        class Spy:
            def next_fire_ns(self, thread):
                return 0  # every op boundary

            def maybe_fire(self, thread):
                order.append(thread.thread_id)

        djvm.add_timer(Spy())
        djvm.run(
            {
                0: wrap_main([P.compute(100_000_000), P.barrier(0)]),
                1: wrap_main([P.compute(1_000), P.barrier(0)]),
            }
        )
        assert set(order) == {0, 1}

    def test_barrier_rendezvous_blocks_until_all(self):
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        simple_class(djvm)
        for n in range(2):
            djvm.spawn_thread(n)
        djvm.run(
            {
                0: wrap_main([P.barrier(0), P.barrier(1)]),
                1: wrap_main([P.barrier(0), P.barrier(1)]),
            }
        )
        b = djvm.hlrc.sync.barriers[0]
        assert b.episodes == 1
        assert b.waiting == {}

    def test_barrier_mismatch_deadlocks(self):
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        simple_class(djvm)
        for n in range(2):
            djvm.spawn_thread(n)
        with pytest.raises(RuntimeError, match="deadlock"):
            djvm.run(
                {
                    0: wrap_main([P.barrier(0)]),
                    1: wrap_main([]),
                }
            )

    def test_lock_contention_serializes(self):
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        cls = simple_class(djvm)
        obj = djvm.allocate(cls, 0)
        for n in range(2):
            djvm.spawn_thread(n)
        djvm.run(
            {
                0: wrap_main([P.acquire(0), P.compute(50_000_000), P.release(0), P.barrier(0)]),
                1: wrap_main([P.acquire(0), P.release(0), P.barrier(0)]),
            }
        )
        lock = djvm.hlrc.sync.locks[0]
        assert lock.acquisitions == 2
        assert lock.holder is None

    def test_missing_program_rejected(self):
        djvm = DJVM(n_nodes=1, costs=CostModel.fast_test())
        djvm.spawn_thread(0)
        djvm.spawn_thread(0)
        with pytest.raises(KeyError):
            djvm.run({0: []})


class TestTimers:
    def test_timers_polled_every_op(self):
        djvm, obj = one_thread_djvm()
        fires = []

        class Counter:
            def next_fire_ns(self, thread):
                return 0  # every op boundary

            def maybe_fire(self, thread):
                fires.append(thread.clock.now_ns)

        djvm.add_timer(Counter())
        djvm.run({0: wrap_main([P.read(obj.obj_id), P.read(obj.obj_id)])})
        assert len(fires) == 4  # call, read, read, ret
        assert fires == sorted(fires)
