"""Which replay route each end-to-end benchmark workload takes.

Besides the scalar loop, replay has one route: the vector engine's one
pass (``VectorEngine.execute``), which walks to its clock stops.  This
pins, at the benchmark's smoke sizes, that the two unprofiled workloads
take it and batch their faults, that ``bh_track_full`` takes it too and
hands each run's first touches to the correlation profiler, and that
``ws_adaptive_sticky`` takes it as well: the footprinter's re-armed
(sampled) objects and the stack sampler's timer are clock stops the
walk visits (``stops`` and ``timer_fires`` in the routing).  SOR's
repeated sweeps execute the same rows of its lane tables again.  A further
replay route has to come with a workload that uses it: add the
workload to the benchmark and its route here first.  The catalog is
loaded by path because ``benchmarks/`` is not a package.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import repro.workloads
from repro.core.adaptive import AdaptiveRateController
from repro.core.profiler import ProfilerSuite
from repro.runtime.djvm import DJVM
from repro.runtime.vector import VectorEngine

CATALOG = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "catalog.py"

#: workload -> does vector replay engage ("one_pass") or not ("scalar").
ROUTES = {
    "sor_base": "one_pass",
    "bh_base": "one_pass",
    "bh_track_full": "one_pass",
    "ws_adaptive_sticky": "one_pass",
}


def load_catalog():
    spec = importlib.util.spec_from_file_location("e2e_catalog", CATALOG)
    catalog = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules.
    sys.modules[spec.name] = catalog
    spec.loader.exec_module(catalog)
    return catalog


catalog = load_catalog()


def attach(profile: str | None, djvm: DJVM) -> None:
    """The profilers ``benchmarks/e2e/measure.py`` attaches per profile."""
    if profile == "full":
        ProfilerSuite(djvm, correlation=True, send_oals=True).set_rate_all("full")
    elif profile == "adaptive":
        suite = ProfilerSuite(
            djvm,
            correlation=True,
            stack=True,
            footprint=True,
            window_batches=catalog.ADAPTIVE_WINDOW_BATCHES,
        )
        suite.set_rate_all(catalog.ADAPTIVE_LADDER[0])
        suite.attach_controller(
            AdaptiveRateController(
                threshold=catalog.ADAPTIVE_THRESHOLD, metric="abs", ladder=catalog.ADAPTIVE_LADDER
            )
        )
    else:
        assert profile is None, profile


@pytest.mark.parametrize("spec", catalog.WORKLOADS, ids=lambda spec: spec.name)
def test_benchmark_workload_takes_its_pinned_route(spec, monkeypatch):
    calls = []
    original = VectorEngine.execute

    def counting(self, thread, row, *args):
        calls.append((thread.thread_id, row))
        return original(self, thread, row, *args)

    monkeypatch.setattr(VectorEngine, "execute", counting)
    workload = getattr(repro.workloads, spec.program)(
        n_threads=catalog.N_THREADS, seed=0, **spec.smoke_sizes
    )
    djvm = DJVM(catalog.N_NODES)
    workload.build(djvm, placement="block")
    attach(spec.profile, djvm)
    djvm.run(workload.programs())
    routing = djvm.replay_routing
    if ROUTES[spec.name] == "one_pass":
        assert calls and routing["runs"] == len(calls)
        assert routing["faults_batched"] > 0
        # Only a profiled run has first touches to hand over, and only
        # the adaptive suite's footprinter and stack sampler stop it.
        assert (routing["first_touches"] > 0) == (spec.profile is not None)
        adaptive = spec.profile == "adaptive"
        assert (routing["stops"] > 0) == adaptive
        assert (routing["timer_fires"] > 0) == adaptive
        if spec.name == "sor_base":
            assert len(set(calls)) < len(calls)
    else:
        assert calls == []
        assert set(routing.values()) == {0}
