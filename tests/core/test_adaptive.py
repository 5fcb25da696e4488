"""Tests for the adaptive rate controller (Section II.B.2)."""

import numpy as np
import pytest

from repro.core.adaptive import (
    AdaptiveRateController,
    OfflineRateSearch,
    RateDecision,
    describe_rate_update,
)
from repro.core.sampling import SamplingPolicy
from repro.heap.heap import GlobalObjectSpace


def map_family(noise_by_rate):
    """A synthetic tcm_at: the true map plus rate-dependent noise."""
    base = np.array([[0.0, 100.0, 0.0], [100.0, 0.0, 50.0], [0.0, 50.0, 0.0]])

    def tcm_at(rate):
        scale = noise_by_rate.get(rate, 0.0)
        rng = np.random.default_rng(int(rate))
        noisy = base * (1 + scale * rng.standard_normal(base.shape))
        return np.abs(noisy)

    return tcm_at


class TestOfflineRateSearch:
    def test_stops_at_convergence(self):
        # Rates 1 and 2 disagree wildly; 2 vs 4 agree.
        noise = {1: 0.8, 2: 0.0, 4: 0.0, 8: 0.0}
        search = OfflineRateSearch(threshold=0.05, ladder=(1, 2, 4, 8))
        chosen = search.run(map_family(noise))
        assert chosen == 2
        assert search.history[-1].converged

    def test_falls_back_to_finest(self):
        noise = {1: 0.9, 2: 0.6, 4: 0.3, 8: 0.1}
        search = OfflineRateSearch(threshold=0.001, ladder=(1, 2, 4, 8))
        assert search.run(map_family(noise)) == 8

    def test_history_records_errors(self):
        search = OfflineRateSearch(threshold=0.05, ladder=(1, 2))
        search.run(map_family({1: 0.0, 2: 0.0}))
        assert search.history[0].relative_error is None
        assert search.history[1].relative_error == pytest.approx(0.0, abs=1e-9)


class TestAdaptiveRateController:
    def test_settles_on_agreement(self):
        ctrl = AdaptiveRateController(threshold=0.05, ladder=(1, 2, 4, 8))
        m = np.array([[0.0, 10.0], [10.0, 0.0]])
        assert ctrl.rate == 1
        ctrl.observe(m)             # first window at rate 1 -> move to 2
        assert ctrl.rate == 2
        ctrl.observe(m)             # agrees with previous -> settle back at 1
        assert ctrl.settled
        assert ctrl.rate == 1

    def test_keeps_climbing_while_diverging(self):
        ctrl = AdaptiveRateController(threshold=0.01, ladder=(1, 2, 4))
        ctrl.observe(np.array([[0.0, 10.0], [10.0, 0.0]]))
        ctrl.observe(np.array([[0.0, 20.0], [20.0, 0.0]]))
        assert not ctrl.settled
        assert ctrl.rate == 4

    def test_ladder_exhaustion_settles_at_finest(self):
        ctrl = AdaptiveRateController(threshold=0.0, ladder=(1, 2))
        ctrl.observe(np.array([[0.0, 1.0], [1.0, 0.0]]))
        ctrl.observe(np.array([[0.0, 9.0], [9.0, 0.0]]))
        assert ctrl.settled
        assert ctrl.rate == 2

    def test_drift_reopens_search(self):
        ctrl = AdaptiveRateController(
            threshold=0.05, ladder=(1, 2, 4), drift_threshold=0.5
        )
        m = np.array([[0.0, 10.0], [10.0, 0.0]])
        ctrl.observe(m)
        ctrl.observe(m)
        assert ctrl.settled
        shifted = np.array([[0.0, 100.0], [100.0, 0.0]])
        ctrl.observe(shifted)
        assert not ctrl.settled

    def test_settled_without_drift_detection_is_stable(self):
        ctrl = AdaptiveRateController(threshold=0.05, ladder=(1, 2))
        m = np.eye(2)
        ctrl.observe(m)
        ctrl.observe(m)
        rate = ctrl.rate
        for _ in range(5):
            assert ctrl.observe(np.random.default_rng(0).random((2, 2))) == rate

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveRateController(ladder=())

    def test_decisions_logged(self):
        ctrl = AdaptiveRateController(threshold=0.05, ladder=(1, 2, 4))
        m = np.ones((2, 2))
        ctrl.observe(m)
        ctrl.observe(m)
        assert isinstance(ctrl.decisions[0], RateDecision)
        assert ctrl.decisions[0].relative_error is None
        assert ctrl.decisions[1].converged


@pytest.mark.parametrize(
    "backend, expected",
    [
        ("prime_gap", "gap=11 (epoch 1, resample pass due on change)"),
        ("hash", "threshold=1/11 (epoch 1, no resample pass)"),
        ("poisson", "lambda=1/1056B (epoch 1, no resample pass)"),
        ("hybrid", "threshold=1/11 (epoch 1, no resample pass)"),
    ],
)
def test_describe_rate_update_names_what_each_backend_realized(backend, expected):
    """A 96-byte class at rate 4 (nominal gap 10, prime gap 11): the
    backend that needs a resample pass reports its gap, Poisson its λ
    over the class's bytes, hash and hybrid their threshold."""
    gos = GlobalObjectSpace()
    body = gos.registry.define("Body", 96)
    policy = SamplingPolicy(backend=backend)
    policy.set_rate(body, 4)
    assert describe_rate_update(policy, body) == expected
