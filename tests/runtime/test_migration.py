"""Tests for the thread migration engine."""

import pytest

from repro.dsm.observer import ProtocolObserver
from repro.dsm.states import RealState
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.runtime.migration import MigrationPlan
from repro.sim.costs import CostModel
from repro.sim.network import MessageKind

from tests.conftest import simple_class, wrap_main


def setup(n_objects=4):
    djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
    cls = simple_class(djvm, "Obj", 256)
    objs = [djvm.allocate(cls, 0) for _ in range(n_objects)]
    djvm.spawn_thread(0)
    return djvm, objs


class TestMigrate:
    def test_rehomes_thread(self):
        djvm, objs = setup()
        t = djvm.threads[0]
        result = djvm.migration.migrate(t, 1)
        assert t.node_id == 1
        assert t.thread_id in djvm.cluster[1].thread_ids
        assert t.thread_id not in djvm.cluster[0].thread_ids
        assert result.to_node == 1
        assert t.migrations == 1

    def test_same_node_rejected(self):
        djvm, objs = setup()
        with pytest.raises(ValueError, match="already on node"):
            djvm.migration.migrate(djvm.threads[0], 0)

    def test_bad_target_rejected(self):
        djvm, objs = setup()
        with pytest.raises(ValueError, match="out of range"):
            djvm.migration.migrate(djvm.threads[0], 5)

    def test_direct_cost_scales_with_stack(self):
        djvm, objs = setup()
        t = djvm.threads[0]
        from repro.runtime.stack import Frame

        small = djvm.migration.migrate(t, 1).direct_cost_ns
        t.stack.push(Frame("m", 200))
        big = djvm.migration.migrate(t, 0).direct_cost_ns
        assert big > small

    def test_migration_message_sent(self):
        djvm, objs = setup()
        djvm.migration.migrate(djvm.threads[0], 1)
        stats = djvm.cluster.network.stats
        assert stats.count_by_kind.get(MessageKind.MIGRATION, 0) == 1


class TestPrefetch:
    def test_prefetch_installs_valid_copies(self):
        djvm, objs = setup()
        ids = [o.obj_id for o in objs]
        result = djvm.migration.migrate(djvm.threads[0], 1, prefetch=ids)
        assert result.prefetched_objects == len(ids)
        for oid in ids:
            copy = djvm.hlrc.copy(1, oid)
            assert copy is not None and copy.real_state is RealState.VALID

    def test_prefetch_skips_target_homed_objects(self):
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        cls = simple_class(djvm, "Obj", 64)
        local = djvm.allocate(cls, 1)
        remote = djvm.allocate(cls, 0)
        djvm.spawn_thread(0)
        result = djvm.migration.migrate(
            djvm.threads[0], 1, prefetch=[local.obj_id, remote.obj_id]
        )
        assert result.prefetched_ids == [remote.obj_id]

    def test_prefetch_avoids_post_migration_faults(self):
        """The headline mechanism: with the sticky set prefetched, the
        migrated thread's re-accesses hit locally."""
        read_ops = lambda objs: [P.read(o.obj_id) for o in objs]

        def run(prefetch: bool) -> int:
            djvm, objs = setup()
            plan = MigrationPlan(
                thread_id=0,
                target_node=1,
                at_pc=len(objs) + 1,  # after the first sweep, mid-interval
                prefetch=[o.obj_id for o in objs] if prefetch else None,
            )
            djvm.migration.schedule(plan)
            result = djvm.run({0: wrap_main(read_ops(objs) + read_ops(objs))})
            return result.counters["faults"]

        faults_without = run(prefetch=False)
        faults_with = run(prefetch=True)
        # Thread starts at the objects' home, so pre-migration reads never
        # fault; without prefetch every re-read after landing faults.
        assert faults_without == 4
        assert faults_with == 0


class TestScheduledPlans:
    def test_at_interval_trigger(self):
        djvm, objs = setup()
        djvm.migration.schedule(MigrationPlan(thread_id=0, target_node=1, at_interval=2))
        djvm.run(
            {0: wrap_main([P.read(objs[0].obj_id), P.barrier(0), P.read(objs[1].obj_id), P.barrier(1)])}
        )
        assert djvm.threads[0].node_id == 1
        assert len(djvm.migration.results) == 1

    def test_duplicate_schedule_rejected(self):
        djvm, objs = setup()
        djvm.migration.schedule(MigrationPlan(thread_id=0, target_node=1, at_pc=1))
        with pytest.raises(ValueError, match="pending"):
            djvm.migration.schedule(MigrationPlan(thread_id=0, target_node=1, at_pc=2))

    def test_prefetch_provider_invoked_at_migration_time(self):
        djvm, objs = setup()
        seen = {}

        def provider(thread):
            seen["pc"] = thread.pc
            return [objs[0].obj_id]

        djvm.migration.schedule(
            MigrationPlan(thread_id=0, target_node=1, at_pc=2, prefetch_provider=provider)
        )
        djvm.run({0: wrap_main([P.read(objs[0].obj_id), P.read(objs[1].obj_id)])})
        assert seen["pc"] >= 2
        assert djvm.migration.results[0].prefetched_objects == 1


class TestMidIntervalWrites:
    """A thread migrated mid-interval flushes what it wrote on the node
    it leaves: each object written before the move gets one diff from
    the old node's copy and one write notice, and what it writes after
    the move is flushed where the interval closes."""

    @staticmethod
    def run(replay, ops_before, ops_after=()):
        djvm = DJVM(n_nodes=3, costs=CostModel.fast_test(), replay=replay)
        cls = simple_class(djvm, "Obj", 64)
        remote = djvm.allocate(cls, 2)  # cached on node 0, homed on node 2
        local = djvm.allocate(cls, 0)  # a home copy on node 0
        djvm.spawn_thread(0)
        before = ops_before(remote, local)
        # pc counts the main frame's CALL: migrate after the writes, in
        # the same interval as them and as what follows.
        djvm.migration.schedule(MigrationPlan(thread_id=0, target_node=1, at_pc=1 + len(before)))
        after = ops_after(remote, local) if ops_after else []
        notices = []

        class Notices(ProtocolObserver):
            def on_notice(self, thread, obj_id, version):
                notices.append((thread.node_id, obj_id, version))

        djvm.attach(Notices())
        result = djvm.run({0: wrap_main([*before, *after, P.barrier(0)])})
        assert djvm.threads[0].node_id == 1
        return djvm, result, remote, local, notices

    @pytest.mark.parametrize("replay", ["vector", "scalar"])
    def test_writes_before_the_move_are_diffed_and_published_once(self, replay):
        djvm, result, remote, local, notices = self.run(
            replay,
            lambda r, h: [P.write(r.obj_id), P.write(h.obj_id), P.read(r.obj_id)],
        )
        assert result.counters["diffs"] == 1
        assert result.counters["notices"] == 2
        home_version = djvm.hlrc.home_version
        assert (home_version[remote.obj_id], home_version[local.obj_id]) == (1, 1)
        # both notices went out from node 0, before the thread left
        assert notices == [(0, remote.obj_id, 1), (0, local.obj_id, 1)]
        old = djvm.hlrc.copy(0, remote.obj_id)
        assert (old.dirty_bytes, old.has_twin, old.writers) == (0, False, None)
        assert old.fetched_version == 1
        assert result.traffic.count_by_kind[MessageKind.DIFF] == 1

    @pytest.mark.parametrize("replay", ["vector", "scalar"])
    def test_a_write_after_the_move_is_flushed_again_at_close(self, replay):
        djvm, result, remote, local, notices = self.run(
            replay,
            lambda r, h: [P.write(r.obj_id), P.write(h.obj_id)],
            lambda r, h: [P.write(r.obj_id)],
        )
        assert result.counters["diffs"] == 2  # one from each node's copy
        assert notices == [
            (0, remote.obj_id, 1),
            (0, local.obj_id, 1),
            (1, remote.obj_id, 2),
        ]
        for node in (0, 1):
            copy = djvm.hlrc.copy(node, remote.obj_id)
            assert (copy.dirty_bytes, copy.writers) == (0, None)

    def test_the_closed_interval_still_lists_every_write(self):
        closed = []

        class Closes(ProtocolObserver):
            def on_interval_close(self, thread, interval):
                closed.append((set(interval.written), interval.flushed))

        djvm = DJVM(n_nodes=3, costs=CostModel.fast_test())
        cls = simple_class(djvm, "Obj", 64)
        a, b = djvm.allocate(cls, 2), djvm.allocate(cls, 2)
        djvm.spawn_thread(0)
        djvm.attach(Closes())
        djvm.migration.schedule(MigrationPlan(thread_id=0, target_node=1, at_pc=2))
        djvm.run({0: wrap_main([P.write(a.obj_id), P.write(b.obj_id), P.barrier(0)])})
        assert closed[0] == ({a.obj_id, b.obj_id}, {a.obj_id})


class TestMigrationInsideAnInternedRun:
    """A migration requested at a pc inside the second occurrence of a
    body the program interns once.  The first occurrence takes the one
    pass before the request exists; the request then keeps the second
    on the scalar loop, which moves the thread at that pc, mid-run.  The
    result is the scalar route's."""

    @staticmethod
    def run(replay):
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test(), replay=replay)
        cls = simple_class(djvm, "Obj", 64)
        a, b, c = (djvm.allocate(cls, home).obj_id for home in (1, 1, 0))
        djvm.spawn_thread(0)
        body = [P.read(a), P.write(b), P.read(c, repeat=2), P.compute(500), P.write(a), P.read(b)]
        program = P.compile_program(wrap_main([*body, P.barrier(0), *body, P.barrier(1)]))
        second = 1 + len(body) + 1  # after the CALL, the first body and its barrier
        at_pc = second + 3

        moved_at = []

        class RequestAtFirstClose(ProtocolObserver):
            def on_interval_close(self, thread, interval):
                if not djvm.migration.results and not djvm.migration.has_pending(0):
                    djvm.migration.schedule(MigrationPlan(thread_id=0, target_node=1, at_pc=at_pc))

            def on_migration(self, thread, result, begin_ns):
                moved_at.append(thread.pc)

        djvm.attach(RequestAtFirstClose())
        result = djvm.run({0: program})
        assert moved_at == [at_pc] and djvm.threads[0].node_id == 1
        return djvm, result, program, second, at_pc

    def test_both_routes_agree_and_the_first_occurrence_took_the_one_pass(self):
        from repro.runtime.djvm import run_fingerprint

        vector, v_result, program, second, at_pc = self.run("vector")
        scalar, s_result, *_ = self.run("scalar")
        runs = program.vector_runs()
        assert runs[1] == runs[second]  # one interned body, twice
        assert run_fingerprint(vector, v_result) == run_fingerprint(scalar, s_result)
        assert vector.replay_routing["runs"] == 1
        assert second < at_pc < second + runs[second][1]
