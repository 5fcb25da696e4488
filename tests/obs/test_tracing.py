"""Span tracer and Chrome-trace exporter unit tests (synthetic spans;
the integration-grade tests against a real run live in test_purity.py)."""

from types import SimpleNamespace

from repro.obs.export import chrome_trace, prometheus_text, validate_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TCM_TRACK, SpanTracer


def _thread(thread_id=0, node_id=0, now_ns=0):
    """A thread stub at simulated time ``now_ns`` whose current interval
    opened at that instant."""
    return SimpleNamespace(
        thread_id=thread_id,
        node_id=node_id,
        clock=SimpleNamespace(_now_ns=now_ns),
        current_interval=SimpleNamespace(start_ns=now_ns),
    )


class TestSpanTracer:
    def test_add_records_in_order_with_counts(self):
        tr = SpanTracer()
        tr.add("a", "cat", 0, 0, 10, 20)
        tr.add("b", "cat", 0, 0, 20, 30)
        tr.add("a", "cat", 1, 1, 5, 7)
        assert [s.name for s in tr.spans] == ["a", "b", "a"]
        assert tr.counts == {"a": 2, "b": 1}
        assert [s.seq for s in tr.spans] == [0, 1, 2]

    def test_interval_open_close_pairs(self):
        tr = SpanTracer()
        t = _thread(thread_id=3, node_id=1, now_ns=100)
        tr.on_interval_open(t)
        assert tr.open_spans() and not tr.spans
        t.clock._now_ns = 250
        tr.on_interval_close(t, SimpleNamespace(interval_id=42))
        assert not tr.open_spans()
        (span,) = tr.spans
        assert (span.begin_ns, span.end_ns) == (100, 250)
        assert span.args == {"interval_id": 42}
        assert span.duration_ns == 150

    def test_interval_close_without_open_is_ignored(self):
        tr = SpanTracer()
        tr.on_interval_close(_thread(now_ns=10), SimpleNamespace(interval_id=0))
        assert tr.spans == []

    def test_barrier_wait_span(self):
        tr = SpanTracer()
        t = _thread(thread_id=2, node_id=1, now_ns=1000)
        tr.on_barrier_arrive(t, 7, 2)
        t.clock._now_ns = 1800
        tr.on_barrier_resume(t, 7)
        (span,) = tr.by_name("barrier_wait")
        assert (span.begin_ns, span.end_ns) == (1000, 1800)
        assert span.cat == "sync"

    def test_barrier_resume_without_arrive_is_ignored(self):
        tr = SpanTracer()
        tr.on_barrier_resume(_thread(now_ns=1800), 7)
        assert tr.spans == []

    def test_containment_same_track_only(self):
        tr = SpanTracer()
        outer = tr.add("interval", "interval", 0, 0, 0, 100)
        inner = tr.add("fault", "dsm", 0, 0, 10, 30)
        other = tr.add("fault", "dsm", 0, 1, 10, 30)
        assert outer.contains(inner)
        assert not outer.contains(other)  # different track

    def test_tcm_windows_serialized_on_daemon_track(self):
        """Two windows delivered while the first computes must queue, not
        overlap — the daemon is sequential."""
        tr = SpanTracer()
        tr.on_tcm_window(0, 100, 50, entries=10, window_index=0)
        tr.on_tcm_window(0, 120, 50, entries=10, window_index=1)  # arrives mid-compute
        a, b = tr.by_name("tcm_window")
        assert a.track == TCM_TRACK and b.track == TCM_TRACK
        assert (a.begin_ns, a.end_ns) == (100, 150)
        assert (b.begin_ns, b.end_ns) == (150, 200)  # queued behind a

    def test_emitters_accrue_self_ns(self):
        tr = SpanTracer()
        for i in range(100):
            tr.add("x", "c", 0, 0, i, i + 1)
        assert tr.self_ns > 0


class TestChromeTraceExport:
    def _tracer(self):
        tr = SpanTracer()
        # node 0 / thread 0: interval containing a fault and a diff
        tr.add("interval", "interval", 0, 0, 0, 1000)
        tr.add("fault", "dsm", 0, 0, 100, 300)
        tr.add("diff", "dsm", 0, 0, 400, 500)
        # node 1 / thread 1: bare interval
        tr.add("interval", "interval", 1, 1, 0, 800)
        # daemon track
        tr.on_tcm_window(0, 600, 100, entries=4, window_index=0)
        return tr

    def test_document_is_schema_valid(self):
        doc = chrome_trace(self._tracer())
        assert validate_chrome_trace(doc) == []

    def test_metadata_rows_name_processes_and_tracks(self):
        doc = chrome_trace(self._tracer())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "node0") in names
        assert ("thread_name", "thread0") in names
        assert ("thread_name", "tcm-daemon") in names

    def test_nesting_emitted_as_b_e_pairs(self):
        doc = chrome_trace(self._tracer())
        track0 = [
            (e["ph"], e["name"])
            for e in doc["traceEvents"]
            if e["ph"] in "BE" and e["pid"] == 0 and e["tid"] == 0
        ]
        assert track0 == [
            ("B", "interval"),
            ("B", "fault"),
            ("E", "fault"),
            ("B", "diff"),
            ("E", "diff"),
            ("E", "interval"),
        ]

    def test_timestamps_are_microseconds(self):
        doc = chrome_trace(self._tracer())
        fault_b = next(
            e for e in doc["traceEvents"] if e["ph"] == "B" and e["name"] == "fault"
        )
        assert fault_b["ts"] == 0.1  # 100 ns -> 0.1 us

    def test_daemon_track_gets_nonnegative_tid(self):
        doc = chrome_trace(self._tracer())
        tids = {e["tid"] for e in doc["traceEvents"] if e.get("name") == "tcm_window"}
        assert all(t >= 0 for t in tids)

    def test_unclosed_spans_skipped(self):
        tr = SpanTracer()
        tr.add("broken", "c", 0, 0, 100, -1)
        doc = chrome_trace(tr)
        assert doc["traceEvents"] == []


class TestValidator:
    def test_rejects_bad_envelope(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"events": []}) != []

    def test_rejects_unbalanced_e(self):
        doc = {"traceEvents": [
            {"ph": "E", "name": "x", "pid": 0, "tid": 0, "ts": 1.0},
        ]}
        assert any("no open B" in p for p in validate_chrome_trace(doc))

    def test_rejects_mismatched_e_name(self):
        doc = {"traceEvents": [
            {"ph": "B", "name": "a", "pid": 0, "tid": 0, "ts": 1.0},
            {"ph": "E", "name": "b", "pid": 0, "tid": 0, "ts": 2.0},
        ]}
        assert any("does not match" in p for p in validate_chrome_trace(doc))

    def test_rejects_unclosed_b(self):
        doc = {"traceEvents": [
            {"ph": "B", "name": "a", "pid": 0, "tid": 0, "ts": 1.0},
        ]}
        assert any("unclosed" in p for p in validate_chrome_trace(doc))

    def test_rejects_backwards_ts(self):
        doc = {"traceEvents": [
            {"ph": "B", "name": "a", "pid": 0, "tid": 0, "ts": 5.0},
            {"ph": "E", "name": "a", "pid": 0, "tid": 0, "ts": 1.0},
        ]}
        assert validate_chrome_trace(doc) != []


class TestPrometheusText:
    def test_renders_help_type_and_samples(self):
        reg = MetricsRegistry()
        reg.counter("faults_total", "remote object faults").inc(3)
        reg.gauge("bytes", "traffic", labels=("kind",)).labels(kind="gos").set(9)
        text = prometheus_text(reg)
        assert "# HELP faults_total remote object faults" in text
        assert "# TYPE faults_total counter" in text
        assert "faults_total 3" in text
        assert 'bytes{kind="gos"} 9' in text
