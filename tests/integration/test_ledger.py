"""The determinism ledger (``benchmarks/ledger.py`` + ``BENCH_perf.json``).

The ledger is checked by equality, so these tests pin the three things
equality needs: nothing host-dependent is recorded, a drifted component
is named by its path, and a section missing from the committed file is
a failure, not a skip (the wall-time checker it replaced compared only
what both files had).  The script is loaded by path because
``benchmarks/`` is not a package; one smoke generation is shared.
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "benchmarks" / "ledger.py"
COMMITTED = ROOT / "BENCH_perf.json"


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location("bench_ledger", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke(ledger):
    produced, problems = ledger.generate("smoke")
    assert problems == []
    return produced


@pytest.fixture()
def check(ledger, smoke, monkeypatch, tmp_path, capsys):
    """Run ``main --mode smoke`` against an edited copy of the committed
    ledger (the smoke tree itself is reused, not re-simulated)."""
    monkeypatch.setattr(ledger, "generate", lambda mode: (smoke, []))

    def run(edit) -> tuple[int, str]:
        committed = json.loads(COMMITTED.read_text())
        edit(committed)
        copy = tmp_path / "ledger.json"
        copy.write_text(json.dumps(committed))
        monkeypatch.setattr(ledger, "LEDGER", copy)
        code = ledger.main(["--mode", "smoke"])
        return code, capsys.readouterr().err

    return run


def test_nothing_host_dependent_is_recorded(ledger, smoke):
    sor = dict(ledger.workload_factories(ledger.N_THREADS))["SOR"]
    again = ledger.workload_section(sor)
    assert json.dumps(again, sort_keys=True) == json.dumps(
        smoke["workloads"]["SOR"], sort_keys=True
    )

    def keys(tree):
        for key, value in tree.items():
            yield key
            if isinstance(value, dict):
                yield from keys(value)

    committed = json.loads(COMMITTED.read_text())
    host = re.compile(r"wall|_per_s|speedup|python|decide_ns|overhead")
    assert [k for k in keys(committed) if host.search(k)] == []


def test_smoke_is_checked_as_a_subset_of_the_full_committed_ledger(ledger, smoke, check):
    code, err = check(lambda committed: None)
    assert (code, err) == (0, "")
    committed = json.loads(COMMITTED.read_text())
    # ... and only as a subset: full mode would want the other rungs too.
    assert ledger.diff(smoke, committed, exact=True) == [
        "scale/sor_128: in the committed ledger but not produced by this tree",
        "scale/sor_64: in the committed ledger but not produced by this tree",
    ]


def test_drift_names_the_component_that_moved(check):
    def edit(committed):
        committed["workloads"]["SOR"]["r4"]["tcm_sha256"] = "0" * 64
        committed["workloads"]["SOR"]["base"]["counters"]["faults"] += 1

    code, err = check(edit)
    assert code == 1
    assert "workloads/SOR/r4/tcm_sha256: " in err
    assert "workloads/SOR/base/counters/faults: 64 -> 63" in err
    assert err.count("ledger FAIL") == 2


@pytest.mark.parametrize("section, key", [("workloads", "Water-Spatial"), ("scale", "sor_8")])
def test_section_missing_from_the_committed_ledger_fails(check, section, key):
    code, err = check(lambda committed: committed[section].pop(key))
    assert code == 1
    assert f"{section}/{key}: not in the committed ledger" in err


def test_vector_differing_from_scalar_fails_even_with_write(
    ledger, monkeypatch, tmp_path, capsys
):
    real = ledger.run_fingerprint

    def replay_leaks(djvm, result, suite=None):
        return {**real(djvm, result, suite), "replay_mode": djvm.replay}

    target = tmp_path / "ledger.json"
    monkeypatch.setattr(ledger, "run_fingerprint", replay_leaks)
    monkeypatch.setattr(ledger, "workload_factories", lambda n_threads: [])
    monkeypatch.setattr(ledger, "SCALE_CONFIGS", [(8, 256, 2)])
    monkeypatch.setattr(ledger, "LEDGER", target)
    assert ledger.main(["--write"]) == 1
    err = capsys.readouterr().err
    for mode in ("vector", "vector_reused", "vector_fresh"):
        assert f"scale/sor_8/{mode}/replay_mode: differs from the scalar oracle" in err
    assert not target.exists()
