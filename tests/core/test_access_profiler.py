"""Tests for fine-grained active correlation tracking (Section II.A)."""

from repro.core.profiler import ProfilerSuite
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel
from repro.sim.network import MessageKind

from tests.conftest import record_deliveries, simple_class, wrap_main


class GapSchedule:
    """A first-touch hook that sets a class's gap at each interval
    close, between intervals as the adaptive controller does."""

    def __init__(self, policy, jclass, gaps):
        self.policy = policy
        self.jclass = jclass
        self.gaps = list(gaps)

    def on_interval_open(self, thread):
        pass

    def fast_on_access(self, thread, ids, faulted):
        pass

    def on_interval_close(self, thread, interval, sync_dst):
        if self.gaps:
            self.policy.set_nominal_gap(self.jclass, self.gaps.pop(0))


def setup(n_nodes=2, n_threads=2, n_objects=6, **suite_kw):
    djvm = DJVM(n_nodes=n_nodes, costs=CostModel.fast_test())
    cls = simple_class(djvm, "Obj", 64)
    objs = [djvm.allocate(cls, i % n_nodes) for i in range(n_objects)]
    djvm.spawn_threads(n_threads)
    suite = ProfilerSuite(djvm, **suite_kw)
    return djvm, objs, suite


class TestAtMostOnceLogging:
    def test_object_logged_once_per_interval(self):
        djvm, objs, suite = setup(n_threads=1)
        suite.set_full_sampling()
        djvm.run({0: wrap_main([P.read(objs[0].obj_id, repeat=100)] * 5 + [P.barrier(0)])})
        assert suite.access_profiler.total_logged == 1

    def test_relogged_in_next_interval(self):
        djvm, objs, suite = setup(n_threads=1)
        suite.set_full_sampling()
        djvm.run(
            {
                0: wrap_main(
                    [P.read(objs[0].obj_id), P.barrier(0), P.read(objs[0].obj_id), P.barrier(1)]
                )
            }
        )
        assert suite.access_profiler.total_logged == 2

    def test_keyword_route_logs_each_object_once_per_interval(self):
        """A hook without a first-touch entry puts every hook on the
        keyword ``on_access`` fan-out, called on every access: the
        profiler still logs, charges and ships each object once per
        interval, exactly as on the first-touch plan."""

        class KeywordOnly:
            def on_interval_open(self, thread):
                pass

            def on_access(self, thread, obj, **kw):
                pass

            def on_interval_close(self, thread, interval, sync_dst):
                pass

        def run(keyword):
            djvm, objs, suite = setup(n_threads=1)
            suite.set_full_sampling()
            if keyword:
                djvm.add_hook(KeywordOnly())
            a, b, c = (o.obj_id for o in objs[:3])
            body = [P.read(a), P.write(b), P.read(a, repeat=3), P.read(c), P.write(a), P.read(b)]
            res = djvm.run({0: wrap_main(body * 2 + [P.barrier(0)] + body + [P.barrier(1)])})
            plan = [mode for _, mode in djvm.hlrc.dispatch_plan]
            prof = suite.access_profiler
            return plan, (prof.total_logged, prof.total_batches, res.thread_finish_ms, res.traffic.oal_bytes)

        (keyword_plan, keyword), (planned_plan, planned) = run(True), run(False)
        assert keyword_plan == ["keyword", "keyword"] and planned_plan == ["first_touch"]
        assert keyword == planned
        assert keyword[0] == 6  # three objects in each of two intervals

    def test_per_thread_logging(self):
        """Both threads log the same object independently (per-thread
        OALs, the fix over per-node passive tracking)."""
        djvm, objs, suite = setup()
        suite.set_full_sampling()
        djvm.run(
            {
                0: wrap_main([P.read(objs[0].obj_id), P.barrier(0)]),
                1: wrap_main([P.read(objs[0].obj_id), P.barrier(0)]),
            }
        )
        assert suite.access_profiler.total_logged == 2


class TestSamplingFilter:
    def test_unsampled_objects_skipped(self):
        djvm, objs, suite = setup(n_threads=1, n_objects=10)
        cls = djvm.registry.get("Obj")
        suite.policy.set_nominal_gap(cls, 5)
        ops = [P.read(o.obj_id) for o in objs]
        djvm.run({0: wrap_main(ops + [P.barrier(0)])})
        # seqs 0..9, gap 5 -> seqs 0 and 5 sampled.
        assert suite.access_profiler.total_logged == 2

    def test_gap_changes_move_classes_on_and_off_the_column_path(self):
        """Full sampling logs every object off the size columns; a gap
        change made between intervals must send the next interval
        through the sampling decision, and going back to full sampling
        must log everything again."""
        djvm, objs, suite = setup(n_threads=1, n_objects=10)
        policy = suite.policy
        suite.set_full_sampling()
        djvm.add_hook(GapSchedule(policy, djvm.registry.get("Obj"), [5, 1]))
        delivered = record_deliveries(suite.collector)
        reads = [P.read(o.obj_id) for o in objs]
        djvm.run({0: wrap_main([*reads, P.barrier(0), *reads, P.barrier(1), *reads])})
        assert policy.off_gap_one == 0
        # seqs 0..9: all, then 0 and 5 at gap 5, then all again.
        assert suite.access_profiler.total_logged == 10 + 2 + 10
        scaled = [batch.scaled_bytes for batch in delivered]
        assert scaled == [[64] * 10, [64 * 5] * 2, [64] * 10]

    def test_scaled_bytes_delivered(self):
        djvm, objs, suite = setup(n_threads=1, n_objects=10, send_oals=False)
        cls = djvm.registry.get("Obj")
        suite.policy.set_nominal_gap(cls, 5)
        djvm.run({0: wrap_main([P.read(objs[0].obj_id), P.barrier(0)])})
        tcm = suite.collector.tcm()
        batches = suite.collector.batches_received
        assert batches == 1
        # TCM is off-diagonal only; verify via the collector's raw count.
        assert suite.collector.entries_received == 1


class TestCosts:
    def test_logging_cost_attributed(self):
        djvm, objs, suite = setup(n_threads=1)
        suite.set_full_sampling()
        djvm.run({0: wrap_main([P.read(objs[0].obj_id), P.barrier(0)])})
        assert djvm.threads[0].cpu.oal_logging_ns > 0
        assert djvm.threads[0].cpu.oal_packing_ns > 0

    def test_real_fault_pays_no_second_trap(self):
        """A logged access that already took a real fault must only add
        the log cost, not another trap."""
        djvm, objs, suite = setup()
        suite.set_full_sampling()
        costs = djvm.costs
        # Thread 0 on node 0 reads an object homed on node 1 -> real fault.
        remote = next(o for o in objs if o.home_node == 1)
        djvm.run(
            {
                0: wrap_main([P.read(remote.obj_id), P.barrier(0)]),
                1: wrap_main([P.barrier(0)]),
            }
        )
        # One log (no extra trap — the fault path already trapped) plus
        # the false-invalid reset of that object when the post-barrier
        # interval opens.
        assert (
            djvm.threads[0].cpu.oal_logging_ns
            == costs.oal_log_ns + costs.false_invalid_reset_ns
        )

    def test_false_invalid_reset_charged_at_open(self):
        djvm, objs, suite = setup(n_threads=1)
        suite.set_full_sampling()
        djvm.run(
            {
                0: wrap_main(
                    [P.read(objs[0].obj_id), P.barrier(0), P.compute(100), P.barrier(1)]
                )
            }
        )
        # The interval opened at barrier 0 resets 1 object.
        cpu = djvm.threads[0].cpu
        assert cpu.oal_logging_ns >= djvm.costs.false_invalid_reset_ns

    def test_disabled_profiler_adds_nothing(self):
        """A profiler is off iff it is not attached: a suite built
        without correlation tracking charges nothing."""
        djvm, objs, suite = setup(n_threads=1, correlation=False)
        suite.set_full_sampling()
        djvm.run({0: wrap_main([P.read(objs[0].obj_id), P.barrier(0)])})
        assert suite.access_profiler is None
        assert djvm.hlrc.hooks == ()
        assert djvm.threads[0].cpu.profiling_ns == 0


class TestOALShipping:
    def test_oal_message_sent_to_master(self):
        djvm, objs, suite = setup()
        suite.set_full_sampling()
        djvm.run(
            {
                0: wrap_main([P.read(objs[0].obj_id), P.barrier(0)]),
                1: wrap_main([P.read(objs[1].obj_id), P.barrier(0)]),
            }
        )
        # Thread 1 is remote from the master; its OAL crosses the wire.
        assert djvm.cluster.network.stats.oal_bytes > 0

    def test_send_disabled_produces_no_traffic(self):
        djvm, objs, suite = setup(send_oals=False)
        suite.set_full_sampling()
        djvm.run(
            {
                0: wrap_main([P.read(objs[0].obj_id), P.barrier(0)]),
                1: wrap_main([P.read(objs[1].obj_id), P.barrier(0)]),
            }
        )
        assert djvm.cluster.network.stats.oal_bytes == 0
        # But the collector still received the batches (Table II's
        # collect-only methodology).
        assert suite.collector.batches_received >= 1

    def test_piggyback_on_barrier_to_master(self):
        djvm, objs, suite = setup()
        suite.set_full_sampling()
        djvm.run(
            {
                0: wrap_main([P.read(objs[0].obj_id), P.barrier(0)]),
                1: wrap_main([P.read(objs[1].obj_id), P.barrier(0)]),
            }
        )
        assert djvm.cluster.network.stats.piggybacked_messages >= 1

    def test_oal_rides_only_syncs_bound_for_the_master(self):
        """A lock managed off the master closes the interval without a
        ride: the OAL still ships, as a message of its own."""
        djvm, objs, suite = setup()
        suite.set_full_sampling()
        djvm.hlrc.sync.lock(5, manager_node=1)
        djvm.run(
            {
                0: wrap_main([P.compute(10)]),
                1: wrap_main([P.read(objs[1].obj_id), P.acquire(5), P.release(5)]),
            }
        )
        stats = djvm.cluster.network.stats
        assert stats.count_by_kind[MessageKind.OAL] == 1
        assert stats.piggybacked_messages == 0

    def test_empty_oal_not_sent(self):
        djvm, objs, suite = setup(n_threads=1)
        suite.set_full_sampling()
        djvm.run({0: wrap_main([P.compute(10), P.barrier(0), P.barrier(1)])})
        assert suite.access_profiler.total_batches == 0


class TestResampling:
    def test_rate_change_charges_resampling(self):
        djvm, objs, suite = setup(n_threads=1)
        suite.set_full_sampling()
        cls = djvm.registry.get("Obj")

        def program():
            yield P.call("main", 2)
            yield P.read(objs[0].obj_id)
            yield P.barrier(0)
            # Mid-run rate change: next interval open pays resampling.
            suite.set_rate_all(1)
            yield P.read(objs[1].obj_id)
            yield P.barrier(1)
            yield P.ret()

        djvm.run({0: program()})
        assert djvm.threads[0].cpu.resampling_ns > 0
        assert suite.access_profiler.resample_passes >= 1
