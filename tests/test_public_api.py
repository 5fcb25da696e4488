"""Public-API surface guard: everything exported is importable,
documented, and the advertised quickstart flows type-check at runtime."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.sim",
    "repro.heap",
    "repro.dsm",
    "repro.runtime",
    "repro.core",
    "repro.placement",
    "repro.workloads",
    "repro.analysis",
    "repro.util",
]


class TestExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves_and_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name, None)
            assert obj is not None, f"{module_name}.{name} missing"
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"

    def test_version_consistent(self):
        import tomllib

        with open("pyproject.toml", "rb") as fh:
            meta = tomllib.load(fh)
        assert repro.__version__ == meta["project"]["version"]


def _keywords(cls) -> set[str]:
    import inspect

    params = inspect.signature(cls.__init__).parameters.values()
    return {p.name for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY}


def test_djvm_keyword_options_are_pinned():
    """One way to run a simulation: a recorder or watcher is an observer
    (``djvm.attach``), not a ``DJVM`` switch, and nodes always timeshare
    one core (the paper's hardware).  A new option is a deliberate edit
    here."""
    assert _keywords(repro.DJVM) == {"costs", "network", "keep_event_trace", "replay"}


def test_profiler_keyword_options_are_pinned():
    """A profiler component is on iff it is attached (no ``enabled``
    switch), and an OAL rides a sync message iff that message targets
    the master (no ``piggyback`` switch).  A new option is a deliberate
    edit here."""
    from repro.core.access_profiler import AccessProfiler
    from repro.core.footprint import StickySetFootprinter
    from repro.core.stack_sampler import StackSampler

    assert _keywords(repro.ProfilerSuite) == {
        "correlation",
        "footprint",
        "stack",
        "send_oals",
        "window_batches",
        "stack_gap_ms",
        "lazy_extraction",
        "footprint_timer_ms",
        "sampling_backend",
    }
    assert _keywords(AccessProfiler) == {"collector", "send_oals"}
    assert _keywords(StickySetFootprinter) == {"timer_period_ms", "duty", "min_accesses"}
    assert _keywords(StackSampler) == {"gap_ms", "lazy"}


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        """The README's quickstart, verbatim in miniature."""
        from repro import DJVM, ProfilerSuite
        from repro.workloads import BarnesHutWorkload

        workload = BarnesHutWorkload(n_bodies=128, rounds=1, n_threads=4)
        djvm = DJVM(n_nodes=4)
        workload.build(djvm)
        suite = ProfilerSuite(djvm, correlation=True, stack=True, footprint=True)
        suite.set_rate_all(4)
        result = djvm.run(workload.programs())
        assert "execution" in result.summary()
        assert suite.tcm().shape == (4, 4)
