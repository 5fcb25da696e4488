"""ProfilerSuite: one object wiring every profiling subsystem into a
DJVM — the simulated counterpart of booting JESSICA2 with the paper's
Access Profiler, Stack Profiler and Correlation Analyzer enabled
(Fig. 2).

Typical use::

    djvm = DJVM(n_nodes=8)
    ... define classes, allocate, spawn threads ...
    suite = ProfilerSuite(djvm, correlation=True, stack=True, footprint=True)
    suite.set_rate_all(4)          # 4X sampling: 4 objects per 4 KB page
    result = djvm.run(programs)
    tcm = suite.tcm()              # thread correlation map
    refs = suite.stack_sampler.invariant_refs(thread)
    fp = suite.footprinter.average_footprint(thread_id)
"""

from __future__ import annotations

import numpy as np

from repro.core.access_profiler import AccessProfiler
from repro.core.adaptive import AdaptiveRateController, PerClassRateController
from repro.core.collector import CorrelationCollector
from repro.core.footprint import StickySetFootprinter
from repro.core.resolution import ResolutionStats, resolve_sticky_set
from repro.core.sampling import SamplingPolicy
from repro.core.stack_sampler import StackSampler
from repro.runtime.djvm import DJVM
from repro.runtime.thread import SimThread


class ProfilerSuite:
    """Facade bundling sampling policy, access profiler, correlation
    collector, sticky-set footprinter and stack sampler."""

    def __init__(
        self,
        djvm: DJVM,
        *,
        correlation: bool = True,
        footprint: bool = False,
        stack: bool = False,
        send_oals: bool = True,
        window_batches: int | None = None,
        stack_gap_ms: float = 16.0,
        lazy_extraction: bool = True,
        footprint_timer_ms: float | None = None,
        sampling_backend=None,
    ) -> None:
        if not djvm.threads:
            raise ValueError("spawn threads before constructing the ProfilerSuite")
        self.djvm = djvm
        costs = djvm.costs
        self.policy = SamplingPolicy(page_size=costs.page_size, backend=sampling_backend)
        self.collector = CorrelationCollector(
            n_threads=len(djvm.threads),
            cluster=djvm.cluster,
            gos=djvm.gos,
            window_batches=window_batches,
        )
        self.access_profiler: AccessProfiler | None = None
        self.footprinter: StickySetFootprinter | None = None
        self.stack_sampler: StackSampler | None = None

        # Profiler components emit into the engine's one observer list.
        observers = djvm.hlrc.observers
        self.collector.observers = observers
        if correlation:
            self.access_profiler = AccessProfiler(
                self.policy,
                djvm.cluster,
                djvm.gos,
                collector=self.collector,
                send_oals=send_oals,
            )
            self.access_profiler.observers = observers
            djvm.add_hook(self.access_profiler)
        if footprint:
            self.footprinter = StickySetFootprinter(
                self.policy,
                costs,
                timer_period_ms=footprint_timer_ms,
            )
            self.footprinter.attach_gos(djvm.gos)
            djvm.add_hook(self.footprinter)
        if stack:
            self.stack_sampler = StackSampler(
                costs, gap_ms=stack_gap_ms, lazy=lazy_extraction
            )
            djvm.add_timer(self.stack_sampler)
        # Observers attached later get the same call from hlrc.attach;
        # telemetry's suite collector reads hlrc.suite at snapshot time.
        djvm.hlrc.suite = self
        for observer in observers:
            observer.on_suite_attach(self)

    # ------------------------------------------------------------------
    # sampling-rate management
    # ------------------------------------------------------------------

    def set_rate_all(self, rate: float | str) -> None:
        """Apply one page-relative sampling rate to every defined class,
        charging resampling passes for classes whose gap changed."""
        changed = self.policy.set_rate_all(list(self.djvm.registry), rate)
        if self.access_profiler is not None:
            for jclass in changed:
                self.access_profiler.notify_rate_change(jclass)

    def set_full_sampling(self) -> None:
        """Shortcut: apply the 'full' rate to every defined class."""
        self.set_rate_all("full")

    def attach_controller(self, controller: AdaptiveRateController) -> None:
        """Drive rates adaptively: requires a windowed collector.  After
        each processed window the controller observes the window TCM and
        the suite applies any rate change it requests."""
        if self.collector.window_batches is None:
            raise ValueError("adaptive control needs window_batches set on the collector")
        suite = self
        original = self.collector.process_window

        def process_and_control():
            window = original()
            new_rate = controller.observe(window)
            # The controller itself remembers what the suite last applied
            # (mirroring how attach_per_class_controller keeps state in
            # the per-class controllers).
            if new_rate != controller.applied_rate:
                suite.set_rate_all(new_rate)
                controller.applied_rate = new_rate
            return window

        self.collector.process_window = process_and_control  # type: ignore[method-assign]

    def attach_per_class_controller(self, controller: PerClassRateController) -> None:
        """Drive rates adaptively *per class* (the paper's granularity):
        after each processed window, the controller observes each class's
        own sub-map and the suite applies any per-class rate changes,
        charging the per-class resampling passes."""
        if self.collector.window_batches is None:
            raise ValueError("adaptive control needs window_batches set on the collector")
        self.collector.track_per_class = True
        suite = self
        original = self.collector.process_window

        def process_and_control():
            window = original()
            class_tcms = suite.collector.window_class_tcms[-1]
            changes = controller.observe(class_tcms)
            for class_id, rate in sorted(changes.items()):
                jclass = suite.djvm.registry.by_id(class_id)
                if suite.policy.set_rate(jclass, rate) and suite.access_profiler:
                    suite.access_profiler.notify_rate_change(jclass)
            return window

        self.collector.process_window = process_and_control  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # outputs
    # ------------------------------------------------------------------

    def tcm(self) -> np.ndarray:
        """The accrued thread correlation map."""
        return self.collector.tcm()

    def resolve_sticky_set(
        self,
        thread: SimThread,
        *,
        tolerance: float = 2.0,
        use_landmarks: bool = True,
        min_comparisons: int = 1,
        charge_cost: bool = True,
    ) -> ResolutionStats:
        """Run sticky-set resolution for a thread about to migrate, using
        the stack sampler's invariants as entry points and the live
        footprint as the per-class budget."""
        if self.stack_sampler is None or self.footprinter is None:
            raise RuntimeError("resolution needs both stack and footprint profiling enabled")
        entry = self.stack_sampler.invariant_refs(thread, min_comparisons=min_comparisons)
        footprint = self.footprinter.live_footprint(thread)
        if not footprint:
            # Fall back to recent closed intervals (element-wise max):
            # migration cost is governed by the heavy interval being
            # interrupted, not by a lifetime average diluted with short
            # synchronization-only intervals.
            footprint = self.footprinter.recent_footprint(thread.thread_id)
        return resolve_sticky_set(
            self.djvm.gos,
            self.policy,
            entry,
            footprint,
            tolerance=tolerance,
            use_landmarks=use_landmarks,
            landmark_ids=self.footprinter.recent_tracked_ids(thread),
            thread=thread if charge_cost else None,
            costs=self.djvm.costs if charge_cost else None,
        )
