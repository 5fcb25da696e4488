"""Tests for the ``python -m repro`` command-line interface."""

import re
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main, make_workload

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "sor"])
        assert args.workload == "sor"
        assert args.nodes == 8
        assert args.rate == "4"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope"])


class TestMakeWorkload:
    @pytest.mark.parametrize("name", ["sor", "barnes-hut", "water-spatial", "group-sharing"])
    def test_all_names_construct(self, name):
        wl = make_workload(name, n_threads=4, seed=1)
        assert wl.n_threads == 4

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            make_workload("bogus", 4, 0)


class TestCommands:
    def test_experiments_lists_every_bench(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_PAPER_SCALE" in out
        # Every bench script on disk exactly once, and nothing that is
        # not on disk: adding or deleting one must update the listing.
        on_disk = sorted(p.name for p in BENCH_DIR.glob("bench_*.py"))
        assert on_disk
        assert sorted(re.findall(r"bench_\w+\.py", out)) == on_disk

    def test_run_group_sharing(self, capsys):
        code = main(
            ["run", "group-sharing", "--nodes", "2", "--threads", "4", "--rate", "full"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GroupSharing" in out
        assert "thread correlation map" in out

    @pytest.mark.parametrize("workload", ["group-sharing", "barnes-hut"])
    def test_run_prints_host_time_by_stage(self, capsys, workload):
        assert main(["run", workload, "--nodes", "2", "--threads", "4"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("host:")]
        assert len(lines) == 1
        seconds = r"\d+\.\d\d s"
        assert re.fullmatch(
            rf"host: build {seconds}, programs\+compile {seconds}, run {seconds}, "
            rf"gc \d+ collections \(\d+ full\) {seconds}",
            lines[0],
        )

    def test_run_prints_replay_routing(self, capsys):
        """One line of routing counts.  With no profiler attached nothing
        observes the run, so Barnes-Hut's one-shot tree walks go lean
        and their faults are batched; the correlation profiler sees
        first touches only, so it keeps that route and gets each run's
        first touches; ``--sticky`` adds the footprinter's re-armed
        accesses and the stack sampler's fires as clock stops.  Under
        every profiler the repeated tree walks skip their home-resident
        objects after their first execution on a node."""
        for profiler in (["--no-correlation"], [], ["--sticky"]):
            argv = ["run", "barnes-hut", "--nodes", "2", "--threads", "4", *profiler]
            assert main(argv) == 0
            out = capsys.readouterr().out
            lines = [ln for ln in out.splitlines() if ln.startswith("replay:")]
            assert len(lines) == 1
            match = re.fullmatch(
                r"replay: bulk (\d+) runs, lean (\d+) runs, faults batched (\d+), "
                r"first touches (\d+), stops (\d+), timer fires (\d+), "
                r"home resident (\d+)",
                lines[0],
            )
            assert match
            bulk, lean, batched, first_touches, stops, fires, home = map(int, match.groups())
            faults = int(re.search(r"faults (\d+)", out).group(1))
            assert lean > 0 and 0 < batched <= faults
            assert (first_touches > 0) == (profiler != ["--no-correlation"])
            assert (stops > 0) == (fires > 0) == (profiler == ["--sticky"])
            assert bulk > 0 and home > 0

    def test_run_without_correlation(self, capsys):
        code = main(
            ["run", "group-sharing", "--nodes", "2", "--threads", "4", "--no-correlation"]
        )
        assert code == 0
        assert "correlation map" not in capsys.readouterr().out

    def test_run_with_sticky(self, capsys):
        code = main(
            ["run", "group-sharing", "--nodes", "2", "--threads", "4", "--sticky"]
        )
        assert code == 0
