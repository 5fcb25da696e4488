"""CLI surface of ``python -m repro.checks``."""

from __future__ import annotations

import re

from repro.checks.__main__ import (
    EXIT_LINT,
    EXIT_RACE,
    EXIT_STATIC,
    main,
    run_lint,
    run_race,
    run_static,
)


def test_lint_clean_file_exits_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f(x=None):\n    return x\n")
    assert run_lint([str(clean)]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_finding_exits_nonzero(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(x=[]):\n    return x\n")
    assert run_lint([str(dirty)]) == EXIT_LINT
    out = capsys.readouterr().out
    assert "SIM006" in out and "dirty.py:1:" in out


def test_main_lint_subcommand(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(x={}):\n    return x\n")
    assert main(["lint", str(dirty)]) == EXIT_LINT


def test_main_lint_defaults_to_repo_tree():
    assert main(["lint"]) == 0


def _fake_report():
    from repro.checks.racedetect import AccessSite, RaceReport

    first = AccessSite(thread_id=0, kind="write", interval_id=1, start_ns=5, end_ns=10)
    second = AccessSite(thread_id=1, kind="read", interval_id=1, start_ns=15, end_ns=20)
    return RaceReport(
        obj_id=5,
        class_name="Obj",
        kind="write-read",
        first=first,
        second=second,
        evidence="unordered",
    )


#: a run's replay routing with no one-pass execution, and with one.
SCALAR = {"runs": 0, "faults_batched": 0}
ONE_PASS = {**SCALAR, "runs": 1}


def test_race_gate_passes_when_expectations_met(monkeypatch, capsys):
    import repro.checks.runner as runner

    monkeypatch.setattr(
        runner,
        "run_race_all",
        lambda verbose=True: [
            ("SOR", 100, [], False, ONE_PASS),
            ("RacyCounter[racy]", 50, [_fake_report()], True, SCALAR),
            ("RacyCounter[locked]", 50, [], False, SCALAR),
        ],
    )
    assert run_race() == 0
    out = capsys.readouterr().out
    assert "seeded race detected" in out and "racecheck: clean" in out


def test_race_gate_fails_on_unexpected_race(monkeypatch, capsys):
    import repro.checks.runner as runner

    monkeypatch.setattr(
        runner,
        "run_race_all",
        lambda verbose=True: [("SOR", 100, [_fake_report()], False, ONE_PASS)],
    )
    assert run_race() == EXIT_RACE
    assert "unexpected race" in capsys.readouterr().err


def test_race_gate_fails_when_seeded_race_missed(monkeypatch, capsys):
    import repro.checks.runner as runner

    monkeypatch.setattr(
        runner,
        "run_race_all",
        lambda verbose=True: [("RacyCounter[racy]", 50, [], True, SCALAR)],
    )
    assert run_race() == EXIT_RACE
    assert "seeded race NOT detected" in capsys.readouterr().err


class TestExitCodes:
    """Each failing gate has its own documented exit code."""

    def test_codes_are_distinct(self):
        from repro.checks.__main__ import ALL_GATES

        # `all` order and codes; 6 was the deleted effects gate: retired,
        # never reused
        assert [(name, code) for name, _run, code in ALL_GATES] == [
            ("lint", 2),
            ("sanitize", 3),
            ("race", 4),
            ("static", 5),
        ]

    def test_effects_subcommand_is_gone(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["effects"])
        assert "invalid choice" in capsys.readouterr().err

    def test_help_documents_exit_codes(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        for code in ("2", "3", "4", "5", "6 retired"):
            assert code in out


class TestAllAggregation:
    """``all`` runs every gate, reports every failure, and exits with
    the highest failing code."""

    def test_all_runs_every_gate_and_exits_max(self, monkeypatch, capsys):
        import repro.checks.__main__ as cli

        calls = []

        def fake(name, code):
            def run(*a, **kw):
                calls.append(name)
                return code

            return run

        monkeypatch.setattr(
            cli,
            "ALL_GATES",
            (
                ("lint", fake("lint", cli.EXIT_LINT), cli.EXIT_LINT),
                ("sanitize", fake("sanitize", 0), cli.EXIT_SANITIZE),
                ("race", fake("race", cli.EXIT_RACE), cli.EXIT_RACE),
                ("static", fake("static", 0), cli.EXIT_STATIC),
            ),
        )
        assert cli.run_all() == cli.EXIT_RACE
        # every gate ran despite the early lint failure
        assert calls == ["lint", "sanitize", "race", "static"]
        err = capsys.readouterr().err
        assert "lint (exit 2)" in err and "race (exit 4)" in err

    def test_all_clean_exits_zero(self, monkeypatch, capsys):
        import repro.checks.__main__ as cli

        monkeypatch.setattr(
            cli,
            "ALL_GATES",
            tuple((n, lambda: 0, c) for n, _r, c in cli.ALL_GATES),
        )
        assert cli.run_all() == 0
        assert "all 4 gates clean" in capsys.readouterr().out

    def test_crashing_gate_counts_as_failure(self, monkeypatch, capsys):
        import repro.checks.__main__ as cli

        def boom():
            raise RuntimeError("gate exploded")

        monkeypatch.setattr(
            cli,
            "ALL_GATES",
            (("sanitize", boom, cli.EXIT_SANITIZE),),
        )
        assert cli.run_all() == cli.EXIT_SANITIZE
        assert "crashed" in capsys.readouterr().err


class TestStaticGate:
    def test_static_gate_passes_on_bundled_workloads(self, capsys):
        assert run_static(verbose=False) == 0
        assert "static: sound" in capsys.readouterr().out

    def test_static_gate_writes_json(self, tmp_path):
        import json

        out = tmp_path / "static.json"
        assert run_static(str(out), verbose=False) == 0
        doc = json.loads(out.read_text())
        assert "RacyCounter[racy]" in doc
        assert doc["RacyCounter[racy]"]["may_races"]

    def test_static_gate_fails_when_dynamic_uncovered(self, monkeypatch, capsys):
        """An uncovered dynamic report must trip the soundness failure."""
        import repro.checks.runner as runner

        real = runner.run_race_all

        def spiked(*, verbose=True):
            out = real(verbose=verbose)
            return [
                (name, n, reports + [_fake_report()] if name == "SOR" else reports, exp, routing)
                for name, n, reports, exp, routing in out
            ]

        monkeypatch.setattr(runner, "run_race_all", spiked)
        assert run_static(verbose=False) == EXIT_STATIC
        assert "UNSOUND" in capsys.readouterr().err


def test_sanitize_gate_prints_routing_and_runs_the_one_pass(capsys):
    from repro.checks.__main__ import run_sanitize

    assert run_sanitize() == 0
    out = capsys.readouterr().out
    assert out.count("    replay: runs ") == 4 and "one pass" in out
    rehomed = re.search(r"sanitize SOR re-homing .* (\d+) re-homed", out)
    assert rehomed and int(rehomed.group(1)) > 0


def test_sanitize_gate_fails_a_run_with_no_one_pass_execution(monkeypatch, capsys):
    import repro.checks.runner as runner
    from repro.checks.__main__ import EXIT_SANITIZE, run_sanitize

    monkeypatch.setattr(
        runner,
        "run_sanitize_all",
        lambda verbose=True: [("SOR", 10, 0, ONE_PASS), ("Barnes-Hut", 10, 0, SCALAR)],
    )
    assert run_sanitize() == EXIT_SANITIZE
    assert "no one-pass execution on Barnes-Hut" in capsys.readouterr().err


def test_race_gate_prints_routing_and_runs_the_one_pass(capsys):
    assert run_race() == 0
    out = capsys.readouterr().out
    assert out.count("    replay: runs ") == 5 and "one pass" in out
    assert "seeded race detected in RacyCounter[racy]" in out
    for name in ("SOR", "Barnes-Hut", "Water-Spatial"):
        routing = re.search(rf"race     {name} .*\n    replay: runs (\d+)", out)
        assert routing and int(routing.group(1)) > 0, name


def test_race_gate_fails_a_tracked_run_with_no_one_pass_execution(monkeypatch, capsys):
    import repro.checks.runner as runner

    monkeypatch.setattr(
        runner,
        "run_race_all",
        lambda verbose=True: [
            ("SOR", 10, [], False, ONE_PASS),
            ("Barnes-Hut", 10, [], False, SCALAR),
            ("RacyCounter[locked]", 5, [], False, SCALAR),
        ],
    )
    assert run_race() == EXIT_RACE
    err = capsys.readouterr().err
    assert "Barnes-Hut: no one-pass execution" in err and "RacyCounter" not in err
