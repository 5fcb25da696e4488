"""Adaptive sampling-rate control (paper Section II.B.1-2).

The controller's problem: find the lowest sampling rate whose TCM is
"accurate enough", knowing only *relative* accuracy (distances between
maps sampled at different rates) because the full-sampling reference is
exactly what sampling avoids computing.  The paper's procedure:

    begin with a rough sampling rate, increase it stepwise (halving the
    gap) and compare the distance between successive correlation
    matrices; when the distance converges under a threshold, stop.

Two drivers are provided:

* :class:`OfflineRateSearch` — functional form used by experiments: give
  it a ``tcm_at(rate)`` callable and it walks the rate ladder.
* :class:`AdaptiveRateController` — online form: observe successive TCM
  windows as the system runs, request rate changes (which trigger
  cluster resampling passes via the access profiler), and settle once
  converged.  It can also *back off* (lengthen the gap) when a workload's
  sharing pattern drifts and the map at the settled rate stops matching
  recent windows — the "applications whose sharing patterns could change
  dynamically" case from the abstract.

Controllers speak page-relative *rates* only; what applying a rate
physically means belongs to the policy's sampling backend.  Under the
default prime-gap backend a rate change mutates the class gap and
charges a cluster-wide resampling pass; under the stateless backends
the same ``set_rate`` realizes a new hash threshold or Poisson λ (both
derived from the realized gap) and the access profiler charges no
resampling pass — there are no per-object sample tags to re-tag (see
:func:`describe_rate_update`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.accuracy import absolute_error, euclidean_error

#: the standard rate ladder, coarse to fine (paper Fig. 9 x-axis reversed).
DEFAULT_RATE_LADDER: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def describe_rate_update(policy, jclass) -> str:
    """One-line account of what the last applied rate realized for a
    class under the policy's active backend — gap mutation (prime_gap),
    selection threshold (hash/hybrid), or Poisson λ.  Diagnostic only;
    used by the frontier bench and CLI summaries."""
    st = policy.state(jclass)
    backend = policy.backend
    gap = st.real_gap
    if backend.needs_resample_pass:
        return f"gap={gap} (epoch {st.epoch}, resample pass due on change)"
    if backend.name == "poisson":
        unit = policy._sampling_unit_size(jclass)
        return f"lambda=1/{gap * unit}B (epoch {st.epoch}, no resample pass)"
    return f"threshold=1/{gap} (epoch {st.epoch}, no resample pass)"


def _distance(a: np.ndarray, b: np.ndarray, metric: str) -> float:
    if metric == "abs":
        return absolute_error(a, b)
    if metric == "euc":
        return euclidean_error(a, b)
    raise ValueError(f"unknown metric {metric!r}")


@dataclass
class RateDecision:
    """One step of the adaptive search."""

    rate: float
    relative_error: float | None
    converged: bool


@dataclass
class OfflineRateSearch:
    """Walk the rate ladder until successive TCMs converge.

    ``tcm_at(rate)`` must return the correlation map measured at a given
    rate (the experiment harness re-runs or re-filters profiling output
    per rate).  The search never consults full sampling — mirroring the
    deployment constraint — unless the ladder's last rung happens to be
    full.
    """

    threshold: float = 0.05
    metric: str = "abs"
    ladder: Sequence[float] = DEFAULT_RATE_LADDER
    history: list[RateDecision] = field(default_factory=list)

    def run(self, tcm_at: Callable[[float], np.ndarray]) -> float:
        """Returns the chosen rate (the first rung whose successor map is
        within ``threshold``); falls back to the finest rung."""
        self.history.clear()
        prev_tcm: np.ndarray | None = None
        prev_rate: float | None = None
        for rate in self.ladder:
            tcm = tcm_at(rate)
            if prev_tcm is None:
                self.history.append(RateDecision(rate, None, False))
            else:
                err = _distance(prev_tcm, tcm, self.metric)
                converged = err <= self.threshold
                self.history.append(RateDecision(rate, err, converged))
                if converged:
                    # The coarser of the pair already captures the map.
                    assert prev_rate is not None
                    return prev_rate
            prev_tcm, prev_rate = tcm, rate
        return self.ladder[-1]


class PerClassRateController:
    """Per-class rate adaptation — the paper's actual granularity
    ("upon receiving a change notice for a specific class, every thread
    will iterate through all objects of that class...").

    Maintains one :class:`AdaptiveRateController` per class; each window
    it observes the per-class TCMs (built from only that class's OAL
    entries) and returns the classes whose rates should change.  Classes
    with no entries in a window are left untouched (no evidence).
    """

    def __init__(
        self,
        *,
        threshold: float = 0.05,
        metric: str = "abs",
        ladder: Sequence[float] = DEFAULT_RATE_LADDER,
        drift_threshold: float | None = None,
    ) -> None:
        self._make = lambda: AdaptiveRateController(
            threshold=threshold,
            metric=metric,
            ladder=ladder,
            drift_threshold=drift_threshold,
        )
        self._controllers: dict[int, AdaptiveRateController] = {}

    def controller_for(self, class_id: int) -> AdaptiveRateController:
        """Get (or lazily create) the class's own controller."""
        ctrl = self._controllers.get(class_id)
        if ctrl is None:
            ctrl = self._make()
            self._controllers[class_id] = ctrl
        return ctrl

    def observe(self, class_tcms: dict[int, np.ndarray]) -> dict[int, float]:
        """Digest one window's per-class maps; returns {class_id: new
        rate} for classes whose rate changed this window."""
        changes: dict[int, float] = {}
        for class_id, tcm in sorted(class_tcms.items()):
            ctrl = self.controller_for(class_id)
            before = ctrl.rate
            after = ctrl.observe(tcm)
            if after != before:
                changes[class_id] = after
        return changes

    @property
    def settled(self) -> bool:
        """True once every observed class has settled."""
        return bool(self._controllers) and all(  # simlint: disable=SIM003 (pure all() predicate; order cannot leak)
            c.settled for c in self._controllers.values()
        )

    def rates(self) -> dict[int, float]:
        """Current rate per observed class."""
        return {cid: c.rate for cid, c in sorted(self._controllers.items())}


class AdaptiveRateController:
    """Online controller: feed it TCM windows, it proposes rate moves.

    Protocol: call :meth:`observe` with each freshly computed window TCM.
    The return value is the rate the system should use for the *next*
    window (the caller applies it via ``SamplingPolicy.set_rate_all`` and
    notifies the access profiler so resampling costs are charged).
    """

    def __init__(
        self,
        *,
        threshold: float = 0.05,
        metric: str = "abs",
        ladder: Sequence[float] = DEFAULT_RATE_LADDER,
        drift_threshold: float | None = None,
    ) -> None:
        if not ladder:
            raise ValueError("rate ladder cannot be empty")
        self.threshold = threshold
        self.metric = metric
        self.ladder = list(ladder)
        #: when set, a settled controller re-opens the search if a new
        #: window drifts this far from the settled map.
        self.drift_threshold = drift_threshold
        self._idx = 0
        self._settled = False
        self._prev_tcm: np.ndarray | None = None
        self._settled_tcm: np.ndarray | None = None
        self.decisions: list[RateDecision] = []
        #: rate last applied by the driving ProfilerSuite (None until the
        #: first application); the suite compares against this instead of
        #: stashing state on a closure.
        self.applied_rate: float | None = None

    @property
    def rate(self) -> float:
        """Rate currently in force."""
        return self.ladder[self._idx]

    @property
    def settled(self) -> bool:
        """True once adaptation has converged."""
        return self._settled

    def observe(self, window_tcm: np.ndarray) -> float:
        """Digest one window's TCM measured at :attr:`rate`; returns the
        rate to use next."""
        tcm = np.asarray(window_tcm, dtype=np.float64)
        if self._settled:
            if self.drift_threshold is not None and self._settled_tcm is not None:
                drift = _distance(tcm, self._settled_tcm, self.metric)
                if drift > self.drift_threshold:
                    # Sharing pattern changed: restart the search from the
                    # current rung.
                    self._settled = False
                    self._prev_tcm = tcm
                    self.decisions.append(RateDecision(self.rate, drift, False))
                    if self._idx + 1 < len(self.ladder):
                        self._idx += 1
                    return self.rate
                self._settled_tcm = tcm  # track the evolving map
            return self.rate

        if self._prev_tcm is None:
            self._prev_tcm = tcm
            self.decisions.append(RateDecision(self.rate, None, False))
            if self._idx + 1 < len(self.ladder):
                self._idx += 1
            return self.rate

        err = _distance(self._prev_tcm, tcm, self.metric)
        converged = err <= self.threshold
        self.decisions.append(RateDecision(self.rate, err, converged))
        if converged:
            # Settle at the *previous* (coarser) rung: it already agreed
            # with this finer measurement.
            self._idx = max(0, self._idx - 1)
            self._settled = True
            self._settled_tcm = tcm
            return self.rate
        self._prev_tcm = tcm
        if self._idx + 1 < len(self.ladder):
            self._idx += 1
        else:
            # Ladder exhausted: run at the finest rate permanently.
            self._settled = True
            self._settled_tcm = tcm
        return self.rate
