"""Tests for the single-core-per-node timesharing model."""

from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel

from tests.conftest import simple_class, wrap_main

WORK = 500_000_000  # 5 ms at fast_test scale


def run(n_nodes: int, n_threads: int):
    djvm = DJVM(n_nodes=n_nodes, costs=CostModel.fast_test())
    simple_class(djvm)
    djvm.spawn_threads(n_threads, placement="block")
    programs = {
        t: wrap_main([P.compute(WORK), P.barrier(0)]) for t in range(n_threads)
    }
    return djvm.run(programs)


class TestTimesharing:
    def test_colocated_threads_serialize(self):
        """Two compute-bound threads on one single-core node take ~2x one
        thread's time; on two nodes they overlap."""
        one_node = run(1, 2).execution_time_ms
        two_nodes = run(2, 2).execution_time_ms
        assert one_node > 1.8 * two_nodes

    def test_four_way_sharing_scales(self):
        quad = run(1, 4).execution_time_ms
        solo = run(4, 4).execution_time_ms
        assert quad > 3.5 * solo

    def test_migrated_thread_contends_at_destination(self):
        """After migrating onto a busy node, a thread serializes with its
        new neighbour rather than executing for free."""
        from repro.runtime.migration import MigrationPlan

        def finish(migrate: bool) -> float:
            djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
            simple_class(djvm)
            djvm.spawn_thread(0)
            djvm.spawn_thread(1)
            if migrate:
                djvm.migration.schedule(
                    MigrationPlan(thread_id=0, target_node=1, at_pc=2)
                )
            chunks = [P.compute(WORK // 8) for _ in range(8)]
            programs = {
                0: wrap_main(chunks + [P.barrier(0)]),
                1: wrap_main(chunks + [P.barrier(0)]),
            }
            return djvm.run(programs).execution_time_ms

        apart = finish(migrate=False)
        together = finish(migrate=True)
        assert together > 1.5 * apart
