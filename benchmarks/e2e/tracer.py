"""Layer-boundary span tracing for the traced benchmark iteration.

The simulator is measured from outside: :class:`LayerTracer` replaces the
public entry points listed in :data:`TARGETS` with timing wrappers at class
(or module) level and puts the originals back afterwards.  It must be
installed *before* any simulator object is constructed, so aliases taken at
construction time (the HLRC single-hook fast path binds
``hook.fast_on_access`` once per DJVM) bind the wrapper.

A span is (name, start, end, parent).  Millions of them are cheap calls, so
spans are aggregated per (name, parent name) as they close and only spans of
at least :data:`LONG_SPAN_NS` are kept individually.  Self time is a span's
duration minus the part its child spans cover.  A call that enters the layer
it is already in (``on_access`` calling ``fast_on_access``) crosses no
boundary and records no span.

The module is named ``tracer`` because ``trace`` would shadow the standard
library module of that name for everything imported after it.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

#: spans at least this long are kept one by one (and exported).
LONG_SPAN_NS = 1_000_000

#: layer name -> (module, class or None for a module-level name, attributes).
TARGETS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("runtime.interpreter.run", "repro.runtime.interpreter", "Interpreter", ("run",)),
    ("runtime.vector.execute", "repro.runtime.vector", "VectorEngine", ("execute",)),
    ("dsm.hlrc.access", "repro.dsm.hlrc", "HomeBasedLRC", ("access",)),
    (
        "dsm.hlrc.interval",
        "repro.dsm.hlrc",
        "HomeBasedLRC",
        ("open_interval", "close_interval", "apply_notices"),
    ),
    (
        "dsm.hlrc.sync",
        "repro.dsm.hlrc",
        "HomeBasedLRC",
        ("acquire", "release", "barrier_arrive", "barrier_release"),
    ),
    ("sim.network.send", "repro.sim.network", "Network", ("send",)),
    ("sim.events", "repro.sim.events", "EventLoop", ("schedule", "pop", "record")),
    (
        "core.access_profiler.on_access",
        "repro.core.access_profiler",
        "AccessProfiler",
        ("on_access", "fast_on_access"),
    ),
    (
        "core.access_profiler.flush",
        "repro.core.access_profiler",
        "AccessProfiler",
        ("on_interval_close",),
    ),
    (
        "core.collector.deliver",
        "repro.core.collector",
        "CorrelationCollector",
        ("deliver", "process_window", "tcm"),
    ),
    # The collector imports the fold by name, so that alias is the call site.
    ("core.tcm.build", "repro.core.collector", None, ("window_accrual",)),
    (
        "core.sampling.decide",
        "repro.core.sampling",
        "SamplingPolicy",
        ("decision", "decide_batch", "is_sampled", "logged_bytes", "scaled_bytes"),
    ),
    ("core.adaptive.observe", "repro.core.adaptive", "AdaptiveRateController", ("observe",)),
    ("core.footprint.on_access", "repro.core.footprint", "StickySetFootprinter", ("on_access",)),
    ("core.stack_sampler.fire", "repro.core.stack_sampler", "StackSampler", ("maybe_fire",)),
)

LAYERS = tuple(name for name, _, _, _ in TARGETS)


def iter_targets():
    """(layer, owner, attribute) for every wrapped entry point; the owner is
    the class, or the module for a module-level name."""
    for name, module_name, class_name, attrs in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        for attr in attrs:
            yield name, owner, attr


class LayerTracer:
    """Installs the wrappers, collects spans, removes the wrappers."""

    def __init__(self) -> None:
        #: open spans, innermost last: [name, nanoseconds covered by children].
        self._stack: list[list] = []
        #: (name, parent name) -> [calls, total ns, self ns].
        self.aggregate: dict[tuple[str, str | None], list[int]] = {}
        #: (name, parent name, start ns, end ns) of every long span.
        self.long_spans: list[tuple[str, str | None, int, int]] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- install / remove ----------------------------------------------

    def install(self) -> None:
        """Replace every target with its wrapper."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in iter_targets():
            # vars(), not getattr: restore exactly what the owner held.
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        """Put every original back."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        stack = self._stack
        aggregate = self.aggregate
        long_spans = self.long_spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            # Outside a root span nothing is measured; inside the same
            # layer no boundary is crossed.
            if not stack or stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                key = (name, parent[0])
                record = aggregate.get(key)
                if record is None:
                    aggregate[key] = [1, duration, duration - frame[1]]
                else:
                    record[0] += 1
                    record[1] += duration
                    record[2] += duration - frame[1]
                if duration >= LONG_SPAN_NS:
                    long_spans.append((name, parent[0], start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- the root span ---------------------------------------------------

    @contextmanager
    def root(self, name: str):
        """The span everything else hangs from; wrappers are inert outside it."""
        frame = [name, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            self.aggregate[(name, None)] = [1, duration, duration - frame[1]]
            self.long_spans.append((name, None, start, end))

    # -- results -----------------------------------------------------------

    def by_layer(self) -> dict[str, dict[str, float]]:
        """{layer: {"calls", "total_s", "self_s"}} summed over parents."""
        out: dict[str, dict[str, float]] = {}
        for (name, _parent), (calls, total_ns, self_ns) in sorted(
            self.aggregate.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
        ):
            layer = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            layer["calls"] += calls
            layer["total_s"] += total_ns / 1e9
            layer["self_s"] += self_ns / 1e9
        return out

    def span_count(self) -> int:
        return sum(record[0] for record in self.aggregate.values())

    def write_chrome_trace(self, path: Path) -> None:
        """Long spans as Chrome-trace complete events, plus the aggregate table."""
        origin = min((s[2] for s in self.long_spans), default=0)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"parent": parent},
            }
            for name, parent, start, end in sorted(self.long_spans, key=lambda s: s[2])
        ]
        aggregate = [
            {
                "name": name,
                "parent": parent,
                "calls": calls,
                "total_s": total_ns / 1e9,
                "self_s": self_ns / 1e9,
            }
            for (name, parent), (calls, total_ns, self_ns) in sorted(
                self.aggregate.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms", "aggregate": aggregate})
        )
