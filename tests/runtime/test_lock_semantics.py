"""Lock semantics under contention: queueing, handover order, deadlock."""

import pytest

from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel

from tests.conftest import simple_class, wrap_main


def make(n_threads=2, n_nodes=2):
    djvm = DJVM(n_nodes=n_nodes, costs=CostModel.fast_test())
    cls = simple_class(djvm, "Obj", 64)
    obj = djvm.allocate(cls, 0)
    for i in range(n_threads):
        djvm.spawn_thread(i % n_nodes)
    return djvm, obj


class TestContention:
    def test_waiter_parks_and_resumes(self):
        djvm, obj = make()
        djvm.run(
            {
                0: wrap_main([P.acquire(0), P.compute(10_000_000), P.release(0), P.barrier(0)]),
                1: wrap_main([P.acquire(0), P.release(0), P.barrier(0)]),
            }
        )
        lock = djvm.hlrc.sync.locks[0]
        assert lock.acquisitions == 2
        assert lock.waiters == []
        assert lock.holder is None

    def test_critical_sections_serialize_in_time(self):
        """The waiter's grant follows the holder's release: the waiter's
        fetch observes the post-release version."""
        djvm, obj = make()
        result = djvm.run(
            {
                0: wrap_main([P.acquire(0), P.write(obj.obj_id), P.compute(50_000_000), P.release(0), P.barrier(0)]),
                1: wrap_main([P.acquire(0), P.read(obj.obj_id), P.release(0), P.barrier(0)]),
            }
        )
        # Thread 0 writes its home copy; thread 1's single fault must have
        # fetched the post-release version (grant time > release time).
        assert result.counters["faults"] == 1
        copy = djvm.hlrc.copy(1, obj.obj_id)
        assert copy is not None
        assert copy.fetched_version == djvm.hlrc.home_version[obj.obj_id] == 1

    def test_three_way_fifo_handover(self):
        djvm, obj = make(n_threads=3, n_nodes=3)
        order = []

        class Tracker:
            def on_interval_open(self, thread):
                pass

            def on_access(self, thread, obj, **kw):
                order.append(thread.thread_id)

            def on_interval_close(self, thread, interval, sync_dst):
                pass

        djvm.add_hook(Tracker())
        programs = {
            tid: wrap_main(
                [P.compute(tid * 1_000_000), P.acquire(0), P.read(obj.obj_id), P.release(0), P.barrier(0)]
            )
            for tid in range(3)
        }
        djvm.run(programs)
        assert djvm.hlrc.sync.locks[0].acquisitions == 3
        assert len(order) == 3

    def test_two_lock_deadlock_detected(self):
        """Opposite-order nested acquires deadlock; the scheduler must
        diagnose rather than hang."""
        djvm, obj = make()
        with pytest.raises(RuntimeError, match="deadlock"):
            djvm.run(
                {
                    0: wrap_main(
                        [P.acquire(0), P.compute(10_000_000), P.acquire(1),
                         P.release(1), P.release(0), P.barrier(0)]
                    ),
                    1: wrap_main(
                        [P.acquire(1), P.compute(10_000_000), P.acquire(0),
                         P.release(0), P.release(1), P.barrier(0)]
                    ),
                }
            )

    def test_reacquire_after_release_by_same_thread(self):
        djvm, obj = make(n_threads=1, n_nodes=1)
        djvm.run(
            {
                0: wrap_main(
                    [P.acquire(0), P.release(0), P.acquire(0), P.release(0)]
                )
            }
        )
        assert djvm.hlrc.sync.locks[0].acquisitions == 2
