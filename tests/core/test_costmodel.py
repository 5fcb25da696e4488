"""Tests for the migration cost model."""

import numpy as np
import pytest

from repro.core.costmodel import MigrationCostModel, object_fault_ns
from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel
from repro.sim.network import Network, RackTopology


def model():
    return MigrationCostModel(Network(), CostModel.gideon300())


class TestEstimate:
    def test_direct_cost_grows_with_stack(self):
        m = model()
        small = m.estimate(stack_slots=4, sticky_footprint={})
        big = m.estimate(stack_slots=400, sticky_footprint={})
        assert big.direct_ns > small.direct_ns

    def test_empty_footprint_free_indirect(self):
        est = model().estimate(stack_slots=4, sticky_footprint={})
        assert est.indirect_fault_ns == 0
        assert est.prefetch_ns == 0
        assert est.sticky_objects == 0

    def test_fault_cost_uses_object_sizes(self):
        m = model()
        fp = {"Body": 9600.0}
        many_small = m.estimate(
            stack_slots=4, sticky_footprint=fp, object_sizes={"Body": 96}
        )
        few_large = m.estimate(
            stack_slots=4, sticky_footprint=fp, object_sizes={"Body": 4800}
        )
        # 100 faults vs 2 faults over the same bytes.
        assert many_small.sticky_objects == 100
        assert few_large.sticky_objects == 2
        assert many_small.indirect_fault_ns > few_large.indirect_fault_ns

    def test_prefetch_beats_faults_for_many_objects(self):
        """The paper's point: one bulk transfer amortizes the per-fault
        round trips."""
        est = model().estimate(
            stack_slots=16,
            sticky_footprint={"Body": 50_000.0},
            object_sizes={"Body": 100},
        )
        assert est.prefetch_ns < est.indirect_fault_ns

    def test_negative_stack_rejected(self):
        with pytest.raises(ValueError):
            model().estimate(stack_slots=-1, sticky_footprint={})

    def test_negative_footprint_entries_ignored(self):
        est = model().estimate(stack_slots=4, sticky_footprint={"X": -10.0})
        assert est.sticky_bytes == 0


class TestMigrationGain:
    def tcm(self):
        # Threads 0 and 1 share heavily; 2 is a loner.
        return np.array(
            [
                [0.0, 1e6, 0.0],
                [1e6, 0.0, 1e3],
                [0.0, 1e3, 0.0],
            ]
        )

    def test_colocating_partners_gains(self):
        m = model()
        placement = {0: 0, 1: 1, 2: 1}
        gain = m.migration_gain_ns(self.tcm(), 0, 0, 1, placement)
        assert gain > 0

    def test_separating_partners_loses(self):
        m = model()
        placement = {0: 0, 1: 0, 2: 1}
        gain = m.migration_gain_ns(self.tcm(), 0, 0, 1, placement)
        assert gain < 0

    def test_horizon_scales_gain(self):
        m = model()
        placement = {0: 0, 1: 1, 2: 1}
        g1 = m.migration_gain_ns(self.tcm(), 0, 0, 1, placement, horizon_intervals=1)
        g10 = m.migration_gain_ns(self.tcm(), 0, 0, 1, placement, horizon_intervals=10)
        assert g10 == pytest.approx(10 * g1)

    def test_wrong_placement_rejected(self):
        with pytest.raises(ValueError):
            model().migration_gain_ns(self.tcm(), 0, 1, 2, {0: 0, 1: 1, 2: 2})


def real_fault_ns(network: Network, size: int, home: int) -> tuple[int, int]:
    """(clock advance, protocol + network-wait CPU) of one real
    ``_fault_remote`` of a ``size``-byte object homed at ``home`` by a
    thread on node 0."""
    djvm = DJVM(4, network=network)
    cls = djvm.define_class("Obj", size)
    obj = djvm.allocate(cls, home)
    thread = djvm.spawn_thread(0)
    djvm.hlrc._fault_remote(thread, obj, False)
    return thread.clock.now_ns, thread.cpu.protocol_ns + thread.cpu.network_wait_ns


class TestObjectFaultPrice:
    @pytest.mark.parametrize("size", [8, 64, 1000, 4096])
    def test_equals_a_real_fault_on_a_flat_fabric(self, size):
        clock, cpu = real_fault_ns(Network(), size, home=1)
        expected = object_fault_ns(CostModel.gideon300(), Network(), size)
        assert clock == cpu == expected

    def test_rack_topology_priced_per_pair_only_with_endpoints(self):
        def rack():
            return Network(topology=RackTopology(2, intra_ns=40_000, cross_ns=200_000))

        costs = CostModel.gideon300()
        near, _ = real_fault_ns(rack(), 64, home=1)
        far, _ = real_fault_ns(rack(), 64, home=3)
        assert object_fault_ns(costs, rack(), 64, 0, 1) == near
        assert object_fault_ns(costs, rack(), 64, 0, 3) == far
        # Without endpoints: the fabric's flat latency figure.
        assert object_fault_ns(costs, rack(), 64) == object_fault_ns(costs, Network(), 64)
        assert near < object_fault_ns(costs, rack(), 64) < far
