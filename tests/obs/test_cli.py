"""python -m repro.obs CLI: summary, export, diff, gate."""

import json

from repro.obs.__main__ import diff_snapshots, main, run_gate


def test_summary_prints_digest(capsys):
    assert main(["summary", "--workload", "sor"]) == 0
    out = capsys.readouterr().out
    assert "hlrc_faults_total" in out
    assert "# spans recorded:" in out
    assert "self-overhead" in out
    assert "# hook dispatch: AccessProfiler=first_touch\n" in out


def test_dispatch_line_names_each_hooks_mode():
    from repro.core.profiler import ProfilerSuite
    from repro.obs.__main__ import dispatch_line
    from repro.runtime.djvm import DJVM

    djvm = DJVM(2)
    djvm.spawn_threads(2)
    assert dispatch_line(djvm.hlrc) == "# hook dispatch: no hooks"
    # The footprinter re-arms the tags of the objects it sampled, so
    # those re-enter it at every access.
    ProfilerSuite(djvm, correlation=True, footprint=True)
    assert dispatch_line(djvm.hlrc) == (
        "# hook dispatch: AccessProfiler=first_touch, StickySetFootprinter=rearming"
    )


def test_export_writes_valid_artifacts(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    prom = tmp_path / "metrics.txt"
    snap = tmp_path / "snapshot.json"
    rc = main(
        [
            "export",
            "--workload",
            "sor",
            "--trace",
            str(trace),
            "--prom",
            str(prom),
            "--snapshot",
            str(snap),
        ]
    )
    assert rc == 0
    doc = json.loads(trace.read_text())
    assert doc["traceEvents"]
    assert "# TYPE hlrc_faults_total counter" in prom.read_text()
    snapshot = json.loads(snap.read_text())
    assert list(snapshot) == sorted(snapshot)


def test_diff_identical_runs_exit_zero(tmp_path, capsys):
    for name in ("a", "b"):
        main(
            [
                "export",
                "--workload",
                "sor",
                "--trace",
                str(tmp_path / f"{name}_trace.json"),
                "--snapshot",
                str(tmp_path / f"{name}.json"),
            ]
        )
    capsys.readouterr()
    rc = main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    assert rc == 0
    assert "identical" in capsys.readouterr().out


def test_diff_detects_drift(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps({"x": 1, "y": 2}))
    (tmp_path / "b.json").write_text(json.dumps({"x": 1, "y": 3, "z": 4}))
    rc = main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "y: 2 -> 3" in captured.out
    assert "z: None -> 4" in captured.out


def test_diff_missing_snapshot_exits_two(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps({"x": 1}))
    rc = main(["diff", str(tmp_path / "a.json"), str(tmp_path / "nope.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "cannot read snapshot" in captured.err
    assert "nope.json" in captured.err


def test_diff_unreadable_snapshot_exits_two(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps({"x": 1}))
    (tmp_path / "b.json").write_text("{not json")
    rc = main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "not valid JSON" in captured.err


def test_diff_snapshots_helper():
    assert diff_snapshots({"a": 1}, {"a": 1}) == []
    assert diff_snapshots({"a": 1}, {"a": 2}) == ["a: 1 -> 2"]


def test_gate_passes(capsys):
    """Byte-identity + trace schema are the gate's assertions; the wall
    overhead is a printed line, so a loaded host cannot fail this."""
    assert run_gate() == 0
    out = capsys.readouterr().out
    assert "obs gate: OK" in out
    assert "overhead" in out and "observer self-report" in out
