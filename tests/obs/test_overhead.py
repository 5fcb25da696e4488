"""Self-overhead accounting arithmetic and the measure() harness."""

from types import SimpleNamespace

from repro.obs import SpanTracer, Telemetry
from repro.obs.overhead import (
    OverheadReport,
    measure,
    overhead_frac,
    profiling_attribution,
)
from repro.runtime.djvm import DJVM


class TestArithmetic:
    def test_overhead_frac(self):
        assert overhead_frac(100, 110) == 0.1
        assert overhead_frac(100, 100) == 0.0
        assert overhead_frac(0, 50) == 0.0  # degenerate base

    def test_profiling_attribution_splits_base_from_profiling(self):
        cpu = SimpleNamespace(
            compute_ns=100,
            access_ns=20,
            protocol_ns=30,
            network_wait_ns=40,
            migration_ns=10,
            profiling_ns=25,
            oal_logging_ns=10,
            oal_packing_ns=5,
            resampling_ns=4,
            stack_sampling_ns=3,
            footprinting_ns=2,
            resolution_ns=1,
            total_ns=225,
        )
        att = profiling_attribution(cpu)
        assert att["base_ns"] == 200
        assert att["profiling_ns"] == 25
        assert att["base_ns"] + att["profiling_ns"] == att["total_ns"]


class TestOverheadReport:
    def test_fractions(self):
        report = OverheadReport(
            base_wall_s=1.0, telemetry_wall_s=1.1, observer_wall_ns=55_000_000
        )
        assert abs(report.overhead_frac - 0.1) < 1e-9
        assert abs(report.observer_frac - 0.05) < 1e-9

    def test_degenerate_zero_walls(self):
        report = OverheadReport(base_wall_s=0.0, telemetry_wall_s=0.0)
        assert report.overhead_frac == 0.0
        assert report.observer_frac == 0.0

    def test_render_mentions_overhead(self):
        text = OverheadReport(base_wall_s=0.1, telemetry_wall_s=0.11).render()
        assert "overhead" in text and "%" in text


class TestMeasure:
    def test_one_run_each_and_telemetry_capture(self):
        calls = {"base": 0, "telem": 0}

        def run_base():
            calls["base"] += 1

        telemetry = Telemetry(DJVM(2))

        def run_telemetry():
            calls["telem"] += 1
            return telemetry

        report = measure(run_base, run_telemetry)
        assert calls == {"base": 1, "telem": 1}
        assert report.base_wall_s > 0
        assert report.telemetry_wall_s > 0
        assert report.samples == len(telemetry.snapshot()) > 0
        assert report.spans == 0  # no tracer attached

    def test_telemetry_off_baseline(self):
        """run_telemetry returning None (telemetry genuinely off) must
        degrade to an all-zero observation, not crash on the missing
        context."""
        report = measure(lambda: None, lambda: None)
        assert report.observer_wall_ns == 0
        assert report.spans == 0
        assert report.samples == 0
        # walls are still measured (calling a no-op costs > 0 ns).
        assert report.base_wall_s > 0 and report.telemetry_wall_s > 0

    def test_self_ns_accounting_reaches_report(self):
        """observer_wall_ns must carry the context's self-reported host
        ns (tracer + registry), and tracing-on runs must report spans."""
        djvm = DJVM(2)
        djvm.attach(SpanTracer())
        telemetry = Telemetry(djvm)
        telemetry.tracer.add("fault", "dsm", 0, "thread0", 0, 10)
        telemetry.snapshot()  # registry self-times its snapshots
        assert telemetry.tracer.self_ns > 0
        assert telemetry.self_wall_ns == telemetry.tracer.self_ns + telemetry.registry.self_ns
        report = measure(lambda: None, lambda: telemetry)
        assert report.observer_wall_ns >= telemetry.tracer.self_ns
        assert report.spans == 1

    def test_zero_duration_report_is_all_zero_fractions(self):
        """A degenerate zero-wall report (e.g. mocked timers) must keep
        both fractions at exactly 0.0 rather than dividing by zero."""
        report = OverheadReport(
            base_wall_s=0.0, telemetry_wall_s=0.0, observer_wall_ns=1_000
        )
        assert report.overhead_frac == 0.0
        assert report.observer_frac == 0.0
        assert "overhead" in report.render()
