"""Exporters: Chrome-trace/Perfetto JSON for spans, Prometheus-style
text for metrics, plus a schema validator for the trace output.

Chrome trace event format (the JSON Perfetto and ``chrome://tracing``
both load): a ``traceEvents`` array of events with ``ph`` phase codes.
We emit:

* ``M`` metadata events naming each process row (``node<N>``) and each
  thread track (``thread<T>`` / ``tcm-daemon``);
* ``B``/``E`` duration pairs per span, ``ts`` in microseconds of
  simulated time, ``pid`` = node id, ``tid`` = track id.

Events are generated per (pid, tid) track from spans sorted by
``(begin_ns, -end_ns, seq)`` and emitted through an explicit stack, so
the output is well-nested by construction: every ``E`` closes the most
recent open ``B`` on its track.  :func:`validate_chrome_trace` checks
exactly that discipline (plus required keys) and is what the ``make
obs`` gate and the exporter tests run against the real output.
"""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TCM_TRACK, Span, SpanTracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "prometheus_text",
]

#: tid offset for synthetic daemon tracks (Chrome wants non-negative
#: tids; the tracer's TCM track is -1).
_DAEMON_TID = 1_000_000


def _tid(track: int) -> int:
    return _DAEMON_TID if track == TCM_TRACK else track


def chrome_trace(tracer: SpanTracer, *, process_prefix: str = "node") -> dict:
    """Render the tracer's spans as a Chrome-trace JSON document."""
    events: list[dict] = []
    tracks: dict[tuple[int, int], list[Span]] = {}
    for span in tracer.spans:
        if span.end_ns < span.begin_ns:  # never closed; skip defensively
            continue
        tracks.setdefault((span.node, _tid(span.track)), []).append(span)

    # metadata rows: one process per node, one named track per tid.
    for pid, tid in sorted(tracks):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{process_prefix}{pid}"},
            }
        )
    for pid, tid in sorted(tracks):
        tname = "tcm-daemon" if tid == _DAEMON_TID else f"thread{tid}"
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": tname},
            }
        )

    # duration events, stack-emitted per track so B/E pairs nest.
    for (pid, tid), spans in sorted(tracks.items()):
        spans.sort(key=lambda s: (s.begin_ns, -s.end_ns, s.seq))
        stack: list[Span] = []
        for span in spans:
            while stack and stack[-1].end_ns <= span.begin_ns:
                events.append(_end_event(stack.pop(), pid, tid))
            events.append(
                {
                    "ph": "B",
                    "name": span.name,
                    "cat": span.cat,
                    "pid": pid,
                    "tid": tid,
                    "ts": span.begin_ns / 1e3,
                    "args": span.args or {},
                }
            )
            stack.append(span)
        while stack:
            events.append(_end_event(stack.pop(), pid, tid))

    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"source": "repro.obs", "clock": "simulated"},
    }


def _end_event(span: Span, pid: int, tid: int) -> dict:
    return {
        "ph": "E",
        "name": span.name,
        "cat": span.cat,
        "pid": pid,
        "tid": tid,
        "ts": span.end_ns / 1e3,
    }


def write_chrome_trace(path, tracer: SpanTracer, **kwargs) -> dict:
    """Write the Chrome-trace JSON to ``path``; returns the document."""
    doc = chrome_trace(tracer, **kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def validate_chrome_trace(doc) -> list[str]:
    """Schema-check a Chrome-trace document.

    Returns a list of problems (empty == valid): structural checks on
    the envelope and each event, plus per-track stack discipline —
    every ``E`` must match the most recent open ``B`` by name, with
    non-decreasing timestamps.
    """
    problems: list[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["document must be an object with a 'traceEvents' array"]
    stacks: dict[tuple, list[tuple[str, float]]] = {}
    last_ts: dict[tuple, float] = {}
    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("M", "B", "E", "X", "I", "C"):
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
            continue
        key = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            stacks.setdefault(key, []).append((ev.get("name"), ts))
        elif ph == "E":
            stack = stacks.get(key)
            if not stack:
                problems.append(f"event {i}: E with no open B on track {key}")
                continue
            b_name, b_ts = stack.pop()
            if ev.get("name") != b_name:
                problems.append(
                    f"event {i}: E {ev.get('name')!r} does not match open "
                    f"B {b_name!r} on track {key}"
                )
            if ts < b_ts:
                problems.append(f"event {i}: E at {ts} before its B at {b_ts}")
        if key in last_ts and ts < last_ts[key] and ph in ("B", "E"):
            problems.append(
                f"event {i}: ts {ts} goes backwards on track {key}"
            )
        last_ts[key] = ts
    for key, stack in sorted(stacks.items()):
        if stack:
            names = [name for name, _ in stack]
            problems.append(f"track {key}: unclosed B events {names}")
    return problems


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus text-exposition snapshot of every metric family."""
    snapshot = registry.snapshot()  # runs collectors; samples are fresh
    lines: list[str] = []
    seen_family: set[str] = set()
    for name in sorted(registry._families):
        family = registry._families[name]
        if name not in seen_family:
            seen_family.add(name)
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
        for sample_name, value in family.samples():
            lines.append(f"{sample_name} {value}")
    # `snapshot` is unused beyond refreshing collectors, but keeping the
    # call makes the text and dict views consistent by construction.
    del snapshot
    return "\n".join(lines) + "\n"
