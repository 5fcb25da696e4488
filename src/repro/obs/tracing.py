"""Span tracer: begin/end intervals in *simulated* time.

The tracer is a :class:`~repro.dsm.observer.ProtocolObserver` on the
engine's one observer list (attach it with ``djvm.attach(SpanTracer())``).
Its overrides read timestamps off the simulated clocks — the tracer
never advances any clock, charges no CPU cost and sends no messages, so
a traced run is byte-identical to an untraced one.

Span taxonomy (category → names):

* ``interval`` — one HLRC interval per thread (``begin``/``end`` pair
  bracketing everything the thread did between two sync points).
* ``dsm`` — ``fault`` (remote object fetch round trip) and ``diff``
  (per-object diff flush at interval close), children of the enclosing
  interval.
* ``sync`` — ``barrier_wait`` from barrier arrival to resume.
* ``runtime`` — ``migration`` (freeze → ship → thaw, incl. prefetch).
* ``profiler`` — ``oal_flush`` (pack + ship one OAL batch) and
  ``tcm_window`` (master daemon computing one correlation window).

Every span records the *node* it executed on and the *track* (thread
id, or a synthetic daemon track) it belongs to — exactly the two axes
the Chrome-trace exporter maps to process and thread rows.

Self-overhead: each emitter brackets its own work with
``time.perf_counter_ns`` and accumulates into :attr:`SpanTracer.self_ns`
— real host time spent observing, never mixed into simulated results.
"""

from __future__ import annotations

import time

from repro.dsm.observer import ProtocolObserver

__all__ = ["Span", "SpanTracer", "TCM_TRACK"]

_perf_ns = time.perf_counter_ns

#: synthetic track id for the master correlation daemon (threads use
#: their non-negative thread ids).
TCM_TRACK = -1


class Span:
    """One completed (or still-open) span on a (node, track) row."""

    __slots__ = ("name", "cat", "node", "track", "begin_ns", "end_ns", "seq", "args")

    def __init__(self, name, cat, node, track, begin_ns, end_ns, seq, args=None):
        self.name = name
        self.cat = cat
        self.node = node
        self.track = track
        self.begin_ns = begin_ns
        self.end_ns = end_ns
        self.seq = seq
        self.args = args

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.begin_ns

    def contains(self, other: "Span") -> bool:
        """Temporal containment on the same track."""
        return (
            self.track == other.track
            and self.begin_ns <= other.begin_ns
            and other.end_ns <= self.end_ns
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, cat={self.cat!r}, node={self.node}, "
            f"track={self.track}, [{self.begin_ns}, {self.end_ns}])"
        )


class SpanTracer(ProtocolObserver):
    """Collects spans; a :class:`ProtocolObserver` folding the
    transitions that take simulated time."""

    __slots__ = (
        "spans", "counts", "self_ns", "_seq", "_open_interval", "_barrier_ns",
        "_tcm_busy_ns",
    )

    def __init__(self) -> None:
        #: completed spans in emission order.
        self.spans: list[Span] = []
        #: span counts by name (deterministic; exported as a gauge).
        self.counts: dict[str, int] = {}
        #: real host ns the tracer spent recording (self-overhead).
        self.self_ns = 0
        self._seq = 0
        #: open interval span per thread id.
        self._open_interval: dict[int, Span] = {}
        #: barrier arrival time per thread id.
        self._barrier_ns: dict[int, int] = {}
        #: TCM daemon busy cursor — windows are serialized on its track.
        self._tcm_busy_ns = 0

    # ------------------------------------------------------------------
    # generic emitters
    # ------------------------------------------------------------------

    def add(self, name, cat, node, track, begin_ns, end_ns, args=None) -> Span:
        """Record one complete span."""
        t0 = _perf_ns()
        span = Span(name, cat, node, track, begin_ns, end_ns, self._seq, args)
        self._seq += 1
        self.spans.append(span)
        self.counts[name] = self.counts.get(name, 0) + 1
        self.self_ns += _perf_ns() - t0
        return span

    # ------------------------------------------------------------------
    # ProtocolObserver overrides
    # ------------------------------------------------------------------

    def on_interval_open(self, thread) -> None:
        t0 = _perf_ns()
        # start_ns, not the clock: open-time hook work belongs inside.
        span = Span("interval", "interval", thread.node_id, thread.thread_id,
                    thread.current_interval.start_ns, -1, self._seq, None)
        self._seq += 1
        self._open_interval[thread.thread_id] = span
        self.self_ns += _perf_ns() - t0

    def on_interval_close(self, thread, interval) -> None:
        t0 = _perf_ns()
        span = self._open_interval.pop(thread.thread_id, None)
        if span is not None:
            span.end_ns = thread.clock._now_ns
            span.args = {"interval_id": interval.interval_id}
            self.spans.append(span)
            self.counts["interval"] = self.counts.get("interval", 0) + 1
        self.self_ns += _perf_ns() - t0

    def on_fault(self, thread, obj, refault, begin_ns: int, n_objects: int) -> None:
        self.add(
            "fault", "dsm", thread.node_id, thread.thread_id, begin_ns,
            thread.clock._now_ns, {"obj_id": obj.obj_id, "objects": n_objects},
        )

    def on_diff(self, thread, obj_id: int, dirty: int, begin_ns: int) -> None:
        self.add(
            "diff", "dsm", thread.node_id, thread.thread_id, begin_ns,
            thread.clock._now_ns, {"obj_id": obj_id, "bytes": dirty},
        )

    def on_barrier_arrive(self, thread, barrier_id: int, parties: int) -> None:
        t0 = _perf_ns()
        self._barrier_ns[thread.thread_id] = thread.clock._now_ns
        self.self_ns += _perf_ns() - t0

    def on_barrier_resume(self, thread, barrier_id: int) -> None:
        arrive_ns = self._barrier_ns.pop(thread.thread_id, None)
        if arrive_ns is None:
            return
        self.add(
            "barrier_wait", "sync", thread.node_id, thread.thread_id,
            arrive_ns, thread.clock._now_ns, {"barrier_id": barrier_id},
        )

    def on_migration(self, thread, result, begin_ns: int) -> None:
        # attributed to the destination node: that row shows the thread
        # arriving (the freeze happened on from_node, recorded in args).
        self.add(
            "migration", "runtime", result.to_node, thread.thread_id,
            begin_ns, thread.clock._now_ns,
            {"from": result.from_node, "to": result.to_node,
             "prefetched": result.prefetched_objects},
        )

    def on_oal_flush(self, thread, batch, begin_ns: int) -> None:
        self.add(
            "oal_flush", "profiler", thread.node_id, thread.thread_id,
            begin_ns, thread.clock._now_ns,
            {"entries": len(batch), "bytes": batch.wire_bytes},
        )

    def on_tcm_window(self, master_node: int, begin_ns: int, duration_ns: int,
                      entries: int, window_index: int) -> None:
        # the daemon is sequential: a window delivered while the previous
        # one is still computing queues behind it on the daemon track.
        begin = max(begin_ns, self._tcm_busy_ns)
        end = begin + duration_ns
        self._tcm_busy_ns = end
        self.add(
            "tcm_window", "profiler", master_node, TCM_TRACK, begin, end,
            {"entries": entries, "window": window_index},
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def open_spans(self) -> list[Span]:
        """Intervals opened but never closed (empty after a clean run)."""
        return list(self._open_interval.values())
