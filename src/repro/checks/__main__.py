"""``python -m repro.checks`` — the determinism check gate CLI.

Subcommands:

* ``lint [PATHS...]`` — run the simlint AST pass (default paths:
  ``src tests benchmarks``); prints ``path:line:col: CODE message`` per
  finding and exits non-zero when any undisabled finding remains.
* ``sanitize`` — run the three tracked bench workloads at test scale
  with a ``ProtocolSanitizer`` attached, printing each run's replay
  routing; exits non-zero on any :class:`~repro.checks.sanitizer.
  SanitizerViolation` or a run with no one-pass run (``runs`` 0).
* ``race`` — run the tracked workloads plus the seeded racy/locked
  synthetic pair with a collecting ``RaceDetector`` attached (it checks
  each interval at its close), printing each run's replay routing;
  exits non-zero when a tracked (race-free) workload reports any race
  or has no one-pass run (``runs`` 0), or when the seeded race
  in ``RacyCounterWorkload(locked=False)`` goes undetected.
* ``static`` — run the whole-program static analysis
  (:mod:`repro.checks.staticflow`) over the same run matrix: the IR
  must verify, the racy synthetic must yield a non-empty may-race set,
  and — the soundness cross-check — every dynamic race report must be
  covered by the static may-race set.
* ``all`` (default) — run **every** gate (lint, sanitize, race,
  static), report each failure, and exit with the highest-severity
  (numerically largest) failing code.

Each failing subcommand exits with its own code (see ``--help``; the
README's gate table is the one exit-code table) so CI logs identify the
failing gate without scraping stderr.  Code 6 belonged to the deleted
``effects`` gate and is retired, not reused.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.checks.simlint import check_paths

DEFAULT_LINT_PATHS = ["src", "tests", "benchmarks"]

#: one distinct exit code per failing gate (0 = all clean).
EXIT_LINT = 2
EXIT_SANITIZE = 3
EXIT_RACE = 4
EXIT_STATIC = 5


def run_lint(paths: list[str] | None = None) -> int:
    """Lint ``paths``; print findings; return a process exit code."""
    paths = paths or DEFAULT_LINT_PATHS
    findings = check_paths(paths)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"simlint: {len(findings)} finding(s)", file=sys.stderr)
        return EXIT_LINT
    print(f"simlint: clean ({', '.join(paths)})")
    return 0


def run_sanitize() -> int:
    """Run sanitizer-enabled bench workloads; return a process exit code."""
    from repro.checks.runner import run_sanitize_all
    from repro.checks.sanitizer import SanitizerViolation

    try:
        report = run_sanitize_all(verbose=True)
    except SanitizerViolation as violation:
        print(f"sanitizer: {violation}", file=sys.stderr)
        return EXIT_SANITIZE
    scalar = [name for name, _, _, routing in report if not routing["runs"]]
    if scalar:
        print(f"sanitizer: no one-pass execution on {', '.join(scalar)}", file=sys.stderr)
        return EXIT_SANITIZE
    total = sum(checks for _, checks, _, _ in report)
    print(f"sanitizer: clean ({total} checks across {len(report)} workloads, one pass)")
    return 0


def run_race() -> int:
    """Run the happens-before race gate; return a process exit code."""
    from repro.checks.runner import SYNTHETIC_PAIR, run_race_all

    report = run_race_all(verbose=True)
    failures = []
    checked = 0
    for name, intervals, reports, expected_racy, routing in report:
        checked += intervals
        if name not in SYNTHETIC_PAIR and not routing["runs"]:
            failures.append(f"{name}: no one-pass execution")
        if expected_racy:
            if not reports:
                failures.append(f"{name}: seeded race NOT detected")
            else:
                # Show the ground-truth positive with both access sites
                # and the unordering evidence.
                print(f"  seeded race detected in {name}:")
                for line in reports[0].render().splitlines():
                    print(f"    {line}")
        elif reports:
            failures.append(f"{name}: {len(reports)} unexpected race(s)")
            for race in reports:
                print(race.render(), file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"racecheck: {failure}", file=sys.stderr)
        return EXIT_RACE
    print(f"racecheck: clean ({checked} intervals across {len(report)} runs, one pass)")
    return 0


def run_static(json_path: str | None = None, *, verbose: bool = True) -> int:
    """Run the static-analysis gate; return a process exit code.

    Three requirements over the race-gate run matrix:

    1. every workload's IR passes full verification (IR001–IR009);
    2. the seeded racy synthetic yields a non-empty static may-race set
       (the analysis is not vacuously silent);
    3. soundness — re-running the matrix under the *dynamic* race
       detector, every dynamic report is covered by the static may-race
       set (``may_races ⊇ dynamic reports``).
    """
    from repro.checks.runner import N_NODES, race_workloads, run_race_all
    from repro.checks.staticflow import analyze, uncovered_dynamic

    failures = []
    static_reports: dict[str, object] = {}
    for name, workload, expected_racy in race_workloads():
        report = analyze(
            workload, n_nodes=N_NODES, placement="round_robin", name=name
        )
        static_reports[name] = report
        if not report.verified:
            failures.append(f"{name}: {len(report.problems)} IR problem(s)")
            for problem in report.problems:
                print(f"  {problem.render()}", file=sys.stderr)
            continue
        if verbose:
            counts = report.sharing.counts()
            shared = sum(
                n for cls, n in counts.items() if cls not in ("node-private", "unaccessed")
            )
            print(
                f"  static   {name:<18} {len(report.ir.objects):>5} objects, "
                f"{shared} shared, {len(report.races)} may-race pair(s)"
            )
        if expected_racy and not report.races:
            failures.append(f"{name}: seeded race has empty static may-race set")

    # Soundness cross-check: dynamic ⊆ static on every workload.
    dynamic = run_race_all(verbose=False)
    covered = 0
    for name, _intervals, reports, _expected, _routing in dynamic:
        report = static_reports.get(name)
        if report is None or not report.verified:
            continue
        missing = uncovered_dynamic(report.races, reports)
        covered += len(reports) - len(missing)
        for dyn in missing:
            failures.append(
                f"{name}: dynamic race not in static may-race set "
                f"(UNSOUND): obj {dyn.obj_id} {dyn.kind} "
                f"threads {dyn.first.thread_id}/{dyn.second.thread_id}"
            )

    if json_path:
        doc = {name: r.to_json() for name, r in sorted(static_reports.items())}
        with open(json_path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"static: wrote {json_path}")

    if failures:
        for failure in failures:
            print(f"static: {failure}", file=sys.stderr)
        return EXIT_STATIC
    total_static = sum(
        len(r.races) for r in static_reports.values() if r.verified
    )
    print(
        f"static: sound ({len(static_reports)} workloads verified, "
        f"{total_static} may-race pair(s), {covered} dynamic report(s) covered)"
    )
    return 0


#: gate name -> (runner, exit code), in ``all`` execution order.
ALL_GATES = (
    ("lint", lambda: run_lint(None), EXIT_LINT),
    ("sanitize", run_sanitize, EXIT_SANITIZE),
    ("race", run_race, EXIT_RACE),
    ("static", run_static, EXIT_STATIC),
)


def run_all() -> int:
    """Run every gate; report all failures; exit max(failing codes).

    Unlike the historical first-failure chain, a broken lint no longer
    hides a broken race gate: CI shows the full damage in one run, and
    the deterministic gate order keeps logs diffable.
    """
    codes: dict[str, int] = {}
    for name, runner, _exit in ALL_GATES:
        try:
            codes[name] = runner()
        except Exception as exc:  # a crashing gate is a failing gate
            print(f"{name}: crashed: {exc!r}", file=sys.stderr)
            codes[name] = _exit
    failing = {name: code for name, code in codes.items() if code}
    if failing:
        summary = ", ".join(f"{n} (exit {c})" for n, c in failing.items())
        print(f"checks: FAILED gates: {summary}", file=sys.stderr)
        return max(failing.values())
    print(f"checks: all {len(codes)} gates clean")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checks",
        description="Determinism lint + protocol sanitizer + race + static gates.",
        epilog=(
            "exit codes: 0 all clean; "
            f"{EXIT_LINT} lint findings; {EXIT_SANITIZE} sanitizer violation or no one-pass run; "
            f"{EXIT_RACE} race gate failed or no one-pass run; {EXIT_STATIC} static gate failed; "
            "6 retired (not reused). "
            "`all` runs every gate and exits with the highest failing code."
        ),
    )
    sub = parser.add_subparsers(dest="command")
    lint = sub.add_parser("lint", help=f"run the simlint AST pass (exit {EXIT_LINT} on findings)")
    lint.add_argument("paths", nargs="*", default=None, help="files or directories")
    sub.add_parser(
        "sanitize",
        help=f"run sanitizer-enabled bench workloads (exit {EXIT_SANITIZE} on violation)",
    )
    sub.add_parser(
        "race",
        help=f"run the happens-before race gate (exit {EXIT_RACE} on a race or no one-pass run)",
    )
    static = sub.add_parser(
        "static",
        help=f"run the whole-program static analysis gate (exit {EXIT_STATIC} on failure)",
    )
    static.add_argument(
        "--json", default=None, metavar="PATH", help="also write per-workload JSON reports"
    )
    sub.add_parser("all", help="run every gate, exit max failing code (default)")
    args = parser.parse_args(argv)

    if args.command == "lint":
        return run_lint(args.paths or None)
    if args.command == "sanitize":
        return run_sanitize()
    if args.command == "race":
        return run_race()
    if args.command == "static":
        return run_static(args.json)
    return run_all()


if __name__ == "__main__":
    raise SystemExit(main())
