"""Smoke test of the end-to-end benchmark (``python -m pytest benchmarks/e2e -q``).

Runs the real command at ``--smoke`` sizes with two iterations, so it checks
the plumbing — names, counts, checksums, failure accounting, wrapper removal
— and says nothing about speed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import measure  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    done = subprocess.run(
        [*RUN, "--smoke", "--out", str(out)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(out.read_text()), out.parent


def test_benchmark_json_matches_the_catalog():
    assert [w["name"] for w in BENCHMARK["workloads"]] == [w.name for w in catalog.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in catalog.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        catalog.PER_LAYER
    )
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in BENCHMARK[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert "setup_s" in names and all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_every_name_is_printed_and_stored(smoke):
    stdout, document, _ = smoke
    manifest = document["manifest"]
    for key in ("git_rev", "git_dirty", "python", "numpy", "nproc", "platform", "seed", "sizes",
                "timed_iterations", "benchmark_wall_s", "aa_spread_last_measured"):
        assert key in manifest
    for workload in BENCHMARK["workloads"]:
        passes = document["workloads"][workload["name"]]
        for metric in BENCHMARK["end_to_end"]:
            assert re.search(rf"^{workload['name']} +{re.escape(metric['name'])} ", stdout, re.M)
            assert passes["untraced"]["end_to_end"][metric["name"]]["value"] is not None
        for metric in BENCHMARK["per_layer"]:
            assert re.search(rf"^{workload['name']} +{re.escape(metric['name'])} ", stdout, re.M)
            assert passes["traced"]["per_layer"][metric["name"]]["value"] is not None


def test_outputs_are_checked_and_agree(smoke):
    _, document, out_dir = smoke
    for name, passes in document["workloads"].items():
        assert passes["untraced"]["failed"] == 0 and passes["traced"]["failed"] == 0
        assert passes["untraced"]["iterations"] == catalog.SMOKE_ITERATIONS
        # The traced iteration is compared with the untraced one inside its
        # child; the two children must agree with each other as well.
        assert passes["traced"]["checksum"] == passes["untraced"]["checksum"]
        assert 0.98 <= passes["traced"]["per_layer"]["trace.self_coverage"]["value"] <= 1.0
        trace = json.loads((out_dir / f"trace-{name}.json").read_text())
        assert trace["traceEvents"] and trace["aggregate"]


def test_one_workload_ends_with_the_summary_line(tmp_path):
    done = subprocess.run(
        [*RUN, "--workload", "bh_track_full", "--seed", "3", "--seconds", "1", "--trace", "0",
         "--smoke", "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] == catalog.SMOKE_ITERATIONS + 1  # + the reference twin
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(m["value"] != 0 for m in summary["metrics"].values())


def test_without_the_simulator_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sor_base", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _failing_factory(monkeypatch, fail_on_call: int):
    real, calls = measure.make_workload, []

    def make(spec, sizes, seed):
        calls.append(1)
        if len(calls) == fail_on_call:
            raise RuntimeError("injected")
        return real(spec, sizes, seed)

    monkeypatch.setattr(measure, "make_workload", make)


def test_an_exception_in_one_iteration_is_counted_not_fatal(monkeypatch):
    spec = catalog.WORKLOAD_BY_NAME["sor_base"]
    _failing_factory(monkeypatch, fail_on_call=3)  # warm-up, timed 1, timed 2
    result = measure.measure_untraced(spec, spec.smoke_sizes, seed=0, iterations=2, seconds=0.0)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "injected" in result["problems"][0]
    assert result["iterations"] == 1 and result["end_to_end"]["run_wall_s"]["n"] == 1


def _installed():
    return [vars(owner)[attr] for _layer, owner, attr in tracer.iter_targets()]


def test_wrappers_are_removed_even_when_the_traced_iteration_fails(monkeypatch):
    spec = catalog.WORKLOAD_BY_NAME["ws_adaptive_sticky"]
    before = _installed()
    result = measure.measure_traced(spec, spec.smoke_sizes, seed=0, trace_out=None)
    assert result["failed"] == 0 and result["per_layer"]["trace.spans"]["value"] > 0
    assert all(now is was for now, was in zip(_installed(), before))

    _failing_factory(monkeypatch, fail_on_call=3)  # warm-up, untraced, traced
    result = measure.measure_traced(spec, spec.smoke_sizes, seed=0, trace_out=None)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert all(now is was for now, was in zip(_installed(), before))
