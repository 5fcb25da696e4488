"""Tests for per-class adaptive rate control (the paper's granularity)."""

import numpy as np
import pytest

from repro.core.adaptive import PerClassRateController
from repro.core.profiler import ProfilerSuite
from repro.core.tcm import tcm_by_class
from repro.core.oal import OALBatch
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel

from tests.conftest import wrap_main


class TestTcmByClass:
    def batch(self, tid, entries):
        b = OALBatch(thread_id=tid, interval_id=1)
        for oid, size, cid in entries:
            b.add(oid, size, class_id=cid)
        return b

    def test_per_class_split(self):
        batches = [
            self.batch(0, [(1, 10, 0), (2, 20, 1)]),
            self.batch(1, [(1, 10, 0), (2, 20, 1)]),
        ]
        maps = tcm_by_class(batches, 2)
        assert set(maps) == {0, 1}
        assert maps[0][0, 1] == 10
        assert maps[1][0, 1] == 20

    def test_sum_equals_full(self):
        from repro.core.tcm import tcm_from_batches

        batches = [
            self.batch(0, [(1, 10, 0), (2, 20, 1), (3, 5, 0)]),
            self.batch(1, [(1, 10, 0), (3, 5, 0)]),
        ]
        maps = tcm_by_class(batches, 2)
        assert np.allclose(sum(maps.values()), tcm_from_batches(batches, 2))


class TestPerClassRateController:
    def flat(self, v):
        m = np.full((2, 2), float(v))
        np.fill_diagonal(m, 0.0)
        return m

    def test_classes_adapt_independently(self):
        ctrl = PerClassRateController(threshold=0.05, ladder=(1, 2, 4, 8))
        # Class 0 is stable from the start; class 1 keeps changing.
        ctrl.observe({0: self.flat(100), 1: self.flat(100)})
        ctrl.observe({0: self.flat(100), 1: self.flat(200)})
        assert ctrl.controller_for(0).settled
        assert not ctrl.controller_for(1).settled
        assert ctrl.controller_for(0).rate == 1
        assert ctrl.controller_for(1).rate > 1

    def test_changes_reported_only_when_rate_moves(self):
        ctrl = PerClassRateController(threshold=0.05, ladder=(1, 2, 4))
        changes1 = ctrl.observe({0: self.flat(100)})
        assert changes1 == {0: 2}
        changes2 = ctrl.observe({0: self.flat(100)})  # converges, settles back
        assert changes2 == {0: 1}
        changes3 = ctrl.observe({0: self.flat(100)})  # settled: no change
        assert changes3 == {}

    def test_unobserved_class_untouched(self):
        ctrl = PerClassRateController(ladder=(1, 2, 4))
        ctrl.observe({0: self.flat(1)})
        assert 1 not in ctrl.rates()

    def test_settled_requires_all(self):
        ctrl = PerClassRateController(threshold=0.05, ladder=(1, 2))
        assert not ctrl.settled  # nothing observed yet
        ctrl.observe({0: self.flat(100)})
        ctrl.observe({0: self.flat(100)})
        assert ctrl.settled


class TestSuiteIntegration:
    def test_per_class_rates_diverge_on_heterogeneous_sharing(self):
        """Two classes: one with stable sharing (few large stable
        objects), one with noisy sharing.  The per-class controller must
        settle the stable class at a coarser rate than the noisy one."""
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        stable_cls = djvm.define_class("Stable", 4096)
        noisy_cls = djvm.define_class("Noisy", 64)
        stable = [djvm.allocate(stable_cls, 0) for _ in range(8)]
        noisy = [djvm.allocate(noisy_cls, 0) for _ in range(256)]
        djvm.spawn_thread(0)
        djvm.spawn_thread(1)
        suite = ProfilerSuite(djvm, correlation=True, send_oals=False, window_batches=2)
        suite.set_rate_all(1)
        ctrl = PerClassRateController(threshold=0.10, ladder=(1, 2, 4, 8, 16))
        suite.attach_per_class_controller(ctrl)

        import numpy as np

        rng = np.random.default_rng(5)
        rounds = 10
        programs = {}
        for tid in range(2):
            ops = []
            for r in range(rounds):
                for o in stable:
                    ops.append(P.read(o.obj_id))
                # Noisy class: a different random subset each round.
                subset = rng.choice(len(noisy), size=64, replace=False)
                for i in subset:
                    ops.append(P.read(noisy[int(i)].obj_id))
                ops.append(P.barrier(r))
            programs[tid] = wrap_main(ops)
        djvm.run(programs)

        rates = ctrl.rates()
        assert rates[stable_cls.class_id] <= rates[noisy_cls.class_id]
        # The stable class settles quickly at the coarse end.
        assert ctrl.controller_for(stable_cls.class_id).settled

    def test_requires_windowed_collector(self):
        djvm = DJVM(n_nodes=1, costs=CostModel.fast_test())
        djvm.define_class("X", 64)
        djvm.spawn_thread(0)
        suite = ProfilerSuite(djvm, correlation=True)
        with pytest.raises(ValueError):
            suite.attach_per_class_controller(PerClassRateController())
