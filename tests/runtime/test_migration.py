"""Tests for the thread migration engine."""

import pytest

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
            rec = djvm.hlrc.heaps[1].get(oid)
            assert rec is not None and rec.real_state is RealState.VALID

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
