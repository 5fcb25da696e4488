# Convenience targets for the reproduction.

.PHONY: install test lint sanitize race static obs objprof frontier check bench bench-paper ledger examples demo clean

install:
	pip install -e .

test:
	PYTHONPATH=src python -m pytest tests/

# Static analysis: ruff (when installed — the CI image has it, minimal
# dev containers may not) plus the repo's own simlint AST pass.  The
# if/else keeps a genuine ruff failure fatal instead of masked.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping (simlint still runs)"; \
	fi
	PYTHONPATH=src python -m repro.checks lint

# Protocol sanitizer: run the tracked bench workloads at test scale with
# a ProtocolSanitizer attached; any invariant violation fails the target.
sanitize:
	PYTHONPATH=src python -m repro.checks sanitize

# Happens-before race gate, one check per interval close: tracked
# workloads must report zero races and run on the vector engine's one
# pass (each run's replay routing is printed), the seeded racy
# synthetic must be caught, its locked twin must stay silent.
race:
	PYTHONPATH=src python -m repro.checks race

# Whole-program static analysis gate: IR verification, sharing/escape
# classification, and the static may-race set — which must contain every
# dynamic race report on the same run matrix (soundness).
static:
	PYTHONPATH=src python -m repro.checks static

# Telemetry gate: a bench-scale workload with metrics + span tracing,
# asserting byte-identity against the untraced run and Chrome-trace JSON
# schema validity.  Telemetry's wall overhead and self-reported host
# time are printed, not judged.
obs:
	PYTHONPATH=src python -m repro.obs gate

# Object-centric inefficiency profiler gate: SOR / Barnes-Hut /
# Water-Spatial report smoke, byte-identity of the run with the
# profiler on vs off, deterministic report ordering, and >= 3 distinct
# patterns with file:line attribution on Water-Spatial.
objprof:
	PYTHONPATH=src python -m repro.obs objprof

# The pre-merge gate: lint, tier-1 tests, sanitizer-enabled workloads,
# the happens-before race gate, the static-analysis soundness gate,
# the telemetry and object-profiler gates, the e2e benchmark's smoke
# tests (its layer tracer resolves simulator entry points by name, so a
# rename must fail here, not in a benchmark run), every example, the
# sampling-backend frontier gates, and the determinism ledger in full
# mode (every workload phase and all four SOR scale rungs; the file must
# match key for key).  Nothing here compares a host time
# against a number recorded on another day or machine — that takes
# benchmarks/e2e/run.py + compare.py.  Does not rewrite the committed
# ledger — use `make ledger` for that.
check: lint
	PYTHONPATH=src python -m pytest tests/
	PYTHONPATH=src python -m pytest benchmarks/e2e -q
	$(MAKE) examples
	PYTHONPATH=src python -m repro.checks sanitize
	PYTHONPATH=src python -m repro.checks race
	PYTHONPATH=src python -m repro.checks static
	PYTHONPATH=src python -m repro.obs gate
	PYTHONPATH=src python -m repro.obs objprof
	PYTHONPATH=src python benchmarks/frontier.py --mode smoke
	PYTHONPATH=src python benchmarks/ledger.py --mode full

# Sampling-backend frontier: accuracy (E_ABS vs full sampling) and cold
# per-decision cost per backend x workload, plus the dead-zone probe.
# Exits non-zero when a frontier gate fails (prime-gap identity,
# 2x-accuracy-at-lower-cost, probe).
frontier:
	PYTHONPATH=src python benchmarks/frontier.py --mode full

bench:
	pytest benchmarks/ --benchmark-only

bench-paper:
	REPRO_PAPER_SCALE=1 pytest benchmarks/ --benchmark-only

# Rewrite the determinism ledger (BENCH_perf.json) from this tree: do
# this only when a change is *meant* to move simulated results, and
# read `git diff BENCH_perf.json` — it names each component that moved.
ledger:
	PYTHONPATH=src python benchmarks/ledger.py --write

examples:
	for f in examples/*.py; do echo "== $$f =="; PYTHONPATH=src python $$f || exit 1; echo; done

demo:
	python -m repro demo

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache benchmarks/results .hypothesis
