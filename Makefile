# Convenience targets for the reproduction.

.PHONY: install test lint sanitize race static obs objprof frontier check bench bench-paper perf examples demo clean

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

# Happens-before race gate: tracked workloads must report zero races,
# the seeded racy synthetic must be caught, its locked twin must stay
# silent.
race:
	PYTHONPATH=src python -m repro.checks race

# Whole-program static analysis gate: IR verification, sharing/escape
# classification, and the static may-race set — which must contain every
# dynamic FastTrack report on the same run matrix (soundness).
static:
	PYTHONPATH=src python -m repro.checks static

# Telemetry gate: a bench-scale workload with metrics + span tracing,
# asserting byte-identity against the untraced run, Chrome-trace JSON
# schema validity, and telemetry wall overhead under 15%.
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
# rename must fail here, not in a benchmark run), plus the perf
# regression guard (wall-time within tolerance of BENCH_perf.json,
# determinism checksums unchanged).  Does not rewrite the committed
# baseline — use `make perf` for that.
check: lint
	PYTHONPATH=src python -m pytest tests/
	PYTHONPATH=src python -m pytest benchmarks/e2e -q
	PYTHONPATH=src python -m repro.checks sanitize
	PYTHONPATH=src python -m repro.checks race
	PYTHONPATH=src python -m repro.checks static
	PYTHONPATH=src python -m repro.obs gate
	PYTHONPATH=src python -m repro.obs objprof
	PYTHONPATH=src python benchmarks/perf_harness.py --repeats 3 --scale smoke --frontier smoke --output /tmp/BENCH_perf.check.json
	PYTHONPATH=src python benchmarks/check_regression.py BENCH_perf.json /tmp/BENCH_perf.check.json

# Sampling-backend frontier: accuracy (E_ABS vs full sampling), cold
# per-decision cost, and end-to-end wall overhead per backend x
# workload, plus the dead-zone probe.  Exits non-zero when a frontier
# gate fails (prime-gap identity, 2x-accuracy-at-lower-cost, probe).
frontier:
	PYTHONPATH=src python benchmarks/frontier.py --mode full

bench:
	pytest benchmarks/ --benchmark-only

bench-paper:
	REPRO_PAPER_SCALE=1 pytest benchmarks/ --benchmark-only

# Regenerate the tracked perf report, guarding against wall-time
# regressions (>20% by default; override with PERF_TOLERANCE=0.3 etc.)
# relative to the committed BENCH_perf.json baseline.
perf:
	PYTHONPATH=src python benchmarks/perf_harness.py --output BENCH_perf.new.json
	PYTHONPATH=src python benchmarks/check_regression.py BENCH_perf.json BENCH_perf.new.json
	mv BENCH_perf.new.json BENCH_perf.json

examples:
	for f in examples/*.py; do echo "== $$f =="; PYTHONPATH=src python $$f || exit 1; echo; done

demo:
	python -m repro demo

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache benchmarks/results .hypothesis
