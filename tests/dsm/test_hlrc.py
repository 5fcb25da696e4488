"""Tests for the HLRC protocol engine — coherence invariants driven
through the DJVM/interpreter."""

import pytest

from repro.dsm.intervals import IntervalHistory
from repro.dsm.states import RealState
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel
from repro.sim.network import MessageKind

from tests.conftest import simple_class, wrap_main


def two_node_setup():
    djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
    cls = simple_class(djvm, "Obj", 64)
    obj = djvm.allocate(cls, home_node=0)
    t0 = djvm.spawn_thread(0)
    t1 = djvm.spawn_thread(1)
    return djvm, obj, t0, t1


class TestFaulting:
    def test_remote_first_access_faults_once(self):
        djvm, obj, t0, t1 = two_node_setup()
        result = djvm.run(
            {
                0: wrap_main([P.barrier(0)]),
                1: wrap_main([P.read(obj.obj_id), P.read(obj.obj_id), P.barrier(0)]),
            }
        )
        assert result.counters["faults"] == 1
        fetches = djvm.cluster.network.stats.count_by_kind.get(
            MessageKind.OBJECT_FETCH_DATA, 0
        )
        assert fetches == 1

    def test_home_access_never_faults(self):
        djvm, obj, t0, t1 = two_node_setup()
        result = djvm.run(
            {
                0: wrap_main([P.read(obj.obj_id), P.write(obj.obj_id), P.barrier(0)]),
                1: wrap_main([P.barrier(0)]),
            }
        )
        assert result.counters["faults"] == 0

    def test_fault_installs_valid_copy(self):
        djvm, obj, t0, t1 = two_node_setup()
        djvm.run(
            {
                0: wrap_main([P.barrier(0)]),
                1: wrap_main([P.read(obj.obj_id), P.barrier(0)]),
            }
        )
        copy = djvm.hlrc.copy(1, obj.obj_id)
        assert copy is not None
        assert copy.real_state is RealState.VALID


class TestCoherence:
    def test_reader_sees_writer_after_barrier(self):
        """Writer updates in interval 1; after the barrier the reader's
        cached copy must be invalidated and re-fetched (the fundamental
        HLRC guarantee)."""
        djvm, obj, t0, t1 = two_node_setup()
        result = djvm.run(
            {
                0: wrap_main([P.barrier(0), P.write(obj.obj_id), P.barrier(1), P.barrier(2)]),
                1: wrap_main(
                    [
                        P.read(obj.obj_id),  # fault #1: initial fetch
                        P.barrier(0),
                        P.barrier(1),
                        P.read(obj.obj_id),  # fault #2: invalidated by notice
                        P.barrier(2),
                    ]
                ),
            }
        )
        assert result.counters["faults"] == 2
        assert result.counters["invalidations"] >= 1

    def test_no_invalidation_without_sync(self):
        """Between synchronizations a stale copy stays readable (lazy
        release consistency allows it)."""
        djvm, obj, t0, t1 = two_node_setup()
        result = djvm.run(
            {
                0: wrap_main([P.write(obj.obj_id), P.barrier(0)]),
                1: wrap_main(
                    [
                        P.read(obj.obj_id),
                        P.read(obj.obj_id),
                        P.read(obj.obj_id),
                        P.barrier(0),
                    ]
                ),
            }
        )
        # Only the initial fetch; the writer's update invalidates nothing
        # until thread 1 synchronizes (which happens at the final barrier,
        # after its last read).
        assert result.counters["faults"] == 1

    def test_own_write_does_not_self_invalidate(self):
        """A writer's own cache copy reflects its applied diff and must
        not be refetched after its own release."""
        djvm, obj, t0, t1 = two_node_setup()
        result = djvm.run(
            {
                0: wrap_main([P.barrier(0)]),
                1: wrap_main(
                    [
                        P.write(obj.obj_id),   # fault + dirty
                        P.acquire(0),          # closes interval: diff flushed
                        P.read(obj.obj_id),    # must NOT fault again
                        P.release(0),
                        P.barrier(0),
                    ]
                ),
            }
        )
        assert result.counters["faults"] == 1

    def test_diff_sent_to_home_on_interval_close(self):
        djvm, obj, t0, t1 = two_node_setup()
        result = djvm.run(
            {
                0: wrap_main([P.barrier(0)]),
                1: wrap_main([P.write(obj.obj_id), P.barrier(0)]),
            }
        )
        assert result.counters["diffs"] == 1
        diff_bytes = djvm.cluster.network.stats.bytes_by_kind.get(MessageKind.DIFF, 0)
        assert diff_bytes > 0
        assert djvm.hlrc.home_version[obj.obj_id] == 1

    def test_home_write_publishes_notice_without_diff_message(self):
        djvm, obj, t0, t1 = two_node_setup()
        result = djvm.run(
            {
                0: wrap_main([P.write(obj.obj_id), P.barrier(0)]),
                1: wrap_main([P.barrier(0)]),
            }
        )
        assert result.counters["notices"] == 1
        assert result.counters["diffs"] == 0
        assert MessageKind.DIFF not in djvm.cluster.network.stats.bytes_by_kind


class TestIntervals:
    def test_at_most_once_summary_per_object(self):
        djvm, obj, t0, t1 = two_node_setup()
        recorder = djvm.attach(IntervalHistory())
        djvm.run(
            {
                0: wrap_main([P.read(obj.obj_id, repeat=5), P.read(obj.obj_id, repeat=3), P.barrier(0)]),
                1: wrap_main([P.barrier(0)]),
            }
        )
        # Exactly one summary for the object across the interval.
        assert recorder.by_thread[0][0].touched == {obj.obj_id}
        summaries = recorder.summaries[0][0]
        assert list(summaries) == [obj.obj_id]
        assert summaries[obj.obj_id].reads == 8

    def test_intervals_delimited_by_sync(self):
        djvm, obj, t0, t1 = two_node_setup()
        history = djvm.attach(IntervalHistory())
        djvm.run(
            {
                0: wrap_main(
                    [P.acquire(0), P.release(0), P.barrier(0)]
                ),
                1: wrap_main([P.barrier(0)]),
            }
        )
        reasons = [iv.close_reason for iv in history.by_thread[0]]
        assert reasons == ["acquire", "release", "barrier", "end"]


class TestLocks:
    def test_mutual_exclusion_holder_tracked(self):
        djvm, obj, t0, t1 = two_node_setup()
        djvm.run(
            {
                0: wrap_main([P.acquire(0), P.write(obj.obj_id), P.release(0), P.barrier(0)]),
                1: wrap_main([P.acquire(0), P.write(obj.obj_id), P.release(0), P.barrier(0)]),
            }
        )
        lock = djvm.hlrc.sync.locks[0]
        assert lock.acquisitions == 2
        assert lock.holder is None
        assert lock.waiters == []

    def test_lock_transfers_update_visibility(self):
        """Write notices ride the lock grant: a parked requester whose
        grant follows the holder's release must invalidate its stale copy
        and re-fetch.

        Deterministic schedule: t0 (home node) runs first and takes the
        lock; t1 fetches the pre-write version, then parks on the lock;
        t0's release flushes the write and hands the lock to t1, whose
        next read must fault.
        """
        djvm, obj, t0, t1 = two_node_setup()
        result = djvm.run(
            {
                0: wrap_main(
                    [P.acquire(0), P.write(obj.obj_id), P.release(0), P.barrier(0)]
                ),
                1: wrap_main(
                    [
                        P.read(obj.obj_id),   # fault #1: fetches version 0
                        P.acquire(0),         # parks: t0 holds the lock
                        P.read(obj.obj_id),   # fault #2: invalidated at grant
                        P.release(0),
                        P.barrier(0),
                    ]
                ),
            }
        )
        assert result.counters["faults"] == 2
        assert result.counters["invalidations"] >= 1

    def test_release_without_hold_rejected(self):
        djvm, obj, t0, t1 = two_node_setup()
        # The static IR gate (IR005) rejects this before the runtime's
        # own check would; both are RuntimeError.
        with pytest.raises(RuntimeError, match="not held|released lock"):
            djvm.run(
                {
                    0: wrap_main([P.release(0), P.barrier(0)]),
                    1: wrap_main([P.barrier(0)]),
                }
            )


class TestBarriers:
    def test_barrier_aligns_clocks(self):
        djvm, obj, t0, t1 = two_node_setup()
        djvm.run(
            {
                0: wrap_main([P.compute(10_000_000), P.barrier(0)]),
                1: wrap_main([P.barrier(0)]),
            }
        )
        # Both threads proceed past the barrier no earlier than the
        # slowest arrival.
        assert abs(t0.clock.now_ns - t1.clock.now_ns) < 1_000_000

    def test_barrier_distributes_notices(self):
        """Write notices published in the episode before a barrier must
        invalidate stale remote copies when the barrier releases.  The
        reader fetches before the writer writes (sequenced by barrier 0)."""
        djvm, obj, t0, t1 = two_node_setup()
        result = djvm.run(
            {
                0: wrap_main([P.barrier(0), P.write(obj.obj_id), P.barrier(1), P.barrier(2)]),
                1: wrap_main(
                    [
                        P.read(obj.obj_id),  # fault #1: fetches version 0
                        P.barrier(0),
                        P.barrier(1),        # notice applied at release
                        P.read(obj.obj_id),  # fault #2
                        P.barrier(2),
                    ]
                ),
            }
        )
        assert result.counters["invalidations"] >= 1
        assert result.counters["faults"] == 2


class TestHomeMaterialization:
    def test_home_copy_created_lazily(self):
        djvm, obj, t0, t1 = two_node_setup()
        assert djvm.hlrc.copy(0, obj.obj_id) is None
        djvm.run(
            {
                0: wrap_main([P.read(obj.obj_id), P.barrier(0)]),
                1: wrap_main([P.barrier(0)]),
            }
        )
        copy = djvm.hlrc.copy(0, obj.obj_id)
        assert copy is not None and copy.is_home
