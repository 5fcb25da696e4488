"""Tests for the online rebalancer (profile -> balancer -> migration),
including the paper's Section VI "home effect" caveat: migrating
correlated threads together without re-homing their data can *increase*
traffic, and combining the rebalancer with home migration fixes it."""

import pytest

from repro.core.costmodel import MigrationCostModel
from repro.core.profiler import ProfilerSuite
from repro.dsm.homemigration import DominantWriterPolicy, HomeMigrationEngine
from repro.placement.balancer import CorrelationAwareBalancer
from repro.placement.runtime_balancer import OnlineRebalancer
from repro.runtime.djvm import DJVM, run_fingerprint
from repro.sim.costs import CostModel
from repro.workloads import GroupSharingWorkload


def scrambled_placement(n_threads: int, n_nodes: int) -> list[int]:
    """Worst-case start: group partners land on different nodes."""
    return [t % n_nodes for t in range(n_threads)]


def run(
    *, rebalance: bool, home_migration: bool = False, rounds: int = 12, replay: str = "vector"
):
    wl = GroupSharingWorkload(
        n_threads=8,
        group_size=2,
        objects_per_group=128,
        private_per_thread=16,
        object_size=256,
        rounds=rounds,
        group_writes=True,  # producer/consumer: placement has recurring value
        seed=4,
    )
    djvm = DJVM(n_nodes=4, costs=CostModel.fast_test(), replay=replay)
    wl.build(djvm, placement=scrambled_placement(8, 4))
    suite = ProfilerSuite(djvm, correlation=True, send_oals=False)
    suite.set_rate_all(4)
    rebalancer = None
    if rebalance:
        balancer = CorrelationAwareBalancer(
            MigrationCostModel(djvm.cluster.network, djvm.costs),
            horizon_intervals=max(2 * rounds, 20),
        )
        rebalancer = OnlineRebalancer(
            suite, balancer, djvm.migration, warmup_intervals=3
        )
        djvm.add_timer(rebalancer)
    if home_migration:
        engine = HomeMigrationEngine(djvm.hlrc)
        djvm.add_hook(
            DominantWriterPolicy(engine, threshold=0.6, min_writes=3, cooldown_writes=4)
        )
    result = djvm.run(wl.programs())
    return wl, djvm, result, rebalancer


class TestOnlineRebalancer:
    def test_fires_once_after_warmup(self):
        wl, djvm, result, rb = run(rebalance=True)
        assert rb.fired
        assert rb.proposals, "expected profitable moves from a scrambled start"

    def test_deadline_is_every_op_until_fired_then_never(self):
        """The warm-up condition is not a time: the hook asks for every
        op boundary (deadline 0) until it has fired, for none after —
        so the interpreter's one deadline compare serves it and vector
        replay is free to engage again."""
        wl, djvm, result, rb = run(rebalance=True)
        assert rb.next_fire_ns(djvm.threads[0]) == 1 << 62
        rb.fired = False
        assert rb.next_fire_ns(djvm.threads[0]) == 0

    @pytest.mark.parametrize("home_migration", [False, True])
    def test_vector_replay_matches_scalar_oracle(self, home_migration):
        """No whole-run replay veto any more: the bulk engine runs
        before and after the fire and must leave what the per-op oracle
        leaves, migrations included."""
        prints = []
        for replay in ("scalar", "vector"):
            _, djvm, result, rb = run(
                rebalance=True, home_migration=home_migration, replay=replay
            )
            assert len(djvm.migration.results) == len(rb.proposals) > 0
            prints.append(run_fingerprint(djvm, result))
        assert prints[0] == prints[1]

    def test_migrations_executed(self):
        wl, djvm, result, rb = run(rebalance=True)
        assert len(djvm.migration.results) == len(rb.proposals)
        moved = {r.thread_id for r in djvm.migration.results}
        assert moved == {p.thread_id for p in rb.proposals}

    def test_partners_colocated_after_rebalance(self):
        wl, djvm, result, rb = run(rebalance=True)
        placement = {t.thread_id: t.node_id for t in djvm.threads}
        colocated = sum(
            1 for g in range(4) if placement[2 * g] == placement[2 * g + 1]
        )
        assert colocated >= 3

    def test_home_effect_pathology_and_its_fix(self):
        """The Section VI caveat, reproduced and resolved:

        * rebalancing alone moves both partners away from their objects'
          homes — recurring diffs/faults now cross the wire twice, and
          traffic does NOT improve;
        * rebalancing + dominant-writer home migration re-homes the data
          to the co-located node and beats the baseline.
        """
        _, _, base, _ = run(rebalance=False)
        _, _, moved_only, _ = run(rebalance=True)
        _, djvm, moved_homed, _ = run(rebalance=True, home_migration=True)

        # The pathology: migration without re-homing fails to cut traffic.
        assert moved_only.traffic.gos_bytes > 0.8 * base.traffic.gos_bytes
        # The fix: with home migration the combination wins clearly.
        assert moved_homed.traffic.gos_bytes < 0.8 * base.traffic.gos_bytes
        assert moved_homed.traffic.gos_bytes < moved_only.traffic.gos_bytes

    def test_invalid_warmup_rejected(self):
        wl = GroupSharingWorkload(n_threads=4, group_size=2, rounds=2)
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        wl.build(djvm)
        suite = ProfilerSuite(djvm, send_oals=False)
        balancer = CorrelationAwareBalancer(
            MigrationCostModel(djvm.cluster.network, djvm.costs)
        )
        with pytest.raises(ValueError):
            OnlineRebalancer(suite, balancer, djvm.migration, warmup_intervals=0)

    def test_no_proposals_no_migrations(self):
        """With negligible sharing, the balancer proposes nothing and no
        thread moves."""
        wl = GroupSharingWorkload(
            n_threads=8,
            group_size=2,
            objects_per_group=1,
            private_per_thread=64,
            object_size=16,
            rounds=6,
            seed=4,
        )
        djvm = DJVM(n_nodes=4, costs=CostModel.fast_test())
        wl.build(djvm, placement=scrambled_placement(8, 4))
        suite = ProfilerSuite(djvm, send_oals=False)
        suite.set_rate_all(4)
        balancer = CorrelationAwareBalancer(
            MigrationCostModel(djvm.cluster.network, djvm.costs), horizon_intervals=2
        )
        rb = OnlineRebalancer(suite, balancer, djvm.migration, warmup_intervals=3)
        djvm.add_timer(rb)
        djvm.run(wl.programs())
        assert rb.fired
        assert djvm.migration.results == []
