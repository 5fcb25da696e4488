"""Interprocedural effect/purity analysis: lattice, rule families on
seeded-violation fixtures, the repo self-check and the on-demand
summary document."""

from __future__ import annotations

import json

from repro.checks.effects import (
    EFFECT_NAMES,
    Effect,
    analyze_package,
    analyze_sources,
)
from repro.checks.effects.summary import SCHEMA_VERSION, build_doc

# ---------------------------------------------------------------------------
# shared fixture scaffolding: a miniature event kernel, the observer
# vocabulary + engine
# ---------------------------------------------------------------------------

KERNEL = """
class ProtocolObserver:
    def on_access(self, thread, heap):
        pass

class EventKind:
    MESSAGE_DELIVER = 1

class EventLoop:
    def __init__(self):
        self.time_ns = 0
    def schedule(self, kind, time_ns, node, seq, callback=None):
        pass
"""


def report_for(engine_src: str, extra: dict | None = None):
    sources = {"kern": KERNEL, "engine": engine_src}
    if extra:
        sources.update(extra)
    return analyze_sources(sources)


def codes(report) -> list[str]:
    return sorted(f.code for f in report.findings)


# ---------------------------------------------------------------------------
# the lattice and per-function classification
# ---------------------------------------------------------------------------


def test_lattice_order_and_join():
    assert Effect.PURE < Effect.READS_SIM < Effect.WRITES_SIM < Effect.HOST
    assert max(Effect.READS_SIM, Effect.WRITES_SIM) is Effect.WRITES_SIM
    assert set(EFFECT_NAMES) == set(Effect)


def test_function_classification():
    rep = report_for(
        """
import time

def pure_fn(x):
    return x + 1

def reads_fn(obj):
    return obj.field

def writes_fn(obj):
    obj.field = 1

def host_fn():
    return time.time()

def fresh_is_pure():
    out = []
    out.append(1)
    return out
"""
    )
    effects = {q.rsplit(".", 1)[-1]: s.effect() for q, s in rep.summaries.items()}
    assert effects["pure_fn"] is Effect.PURE
    assert effects["reads_fn"] is Effect.READS_SIM
    assert effects["writes_fn"] is Effect.WRITES_SIM
    assert effects["host_fn"] is Effect.HOST
    assert effects["fresh_is_pure"] is Effect.PURE


def test_effect_is_transitive_through_calls():
    rep = report_for(
        """
def leaf(obj):
    obj.field = 1

def caller(obj):
    leaf(obj)
"""
    )
    assert rep.summaries["engine.caller"].effect() is Effect.WRITES_SIM


# ---------------------------------------------------------------------------
# EFF1xx: observer purity
# ---------------------------------------------------------------------------

BAD_OBSERVER = """
from kern import ProtocolObserver

class BadObserver(ProtocolObserver):
    def on_access(self, thread, heap):
        heap.records[3].state = "dirty"

class Engine:
    def __init__(self):
        self.observers = [BadObserver()]
    def step(self, thread, heap):
        for observer in self.observers:
            observer.on_access(thread, heap)
"""


def test_eff102_observer_mutates_engine_state():
    rep = report_for(BAD_OBSERVER)
    assert codes(rep) == ["EFF102"]
    (f,) = rep.findings
    assert "BadObserver.on_access" in f.message
    assert "engine.BadObserver.on_access" in rep.observer_roots


def test_eff101_host_effect_in_observer():
    rep = report_for(
        """
import time
from kern import ProtocolObserver

class SleepyObserver(ProtocolObserver):
    def on_access(self, thread, heap):
        time.sleep(0.01)
"""
    )
    assert codes(rep) == ["EFF101"]


def test_observer_self_writes_allowed():
    rep = report_for(
        """
from kern import ProtocolObserver

class GoodObserver(ProtocolObserver):
    def __init__(self):
        self.events = []
        self.count = 0
    def on_access(self, thread, heap):
        self.events.append(thread.thread_id)
        self.count += 1
"""
    )
    assert rep.findings == []


def test_observer_purity_is_interprocedural():
    """A write reached through a helper call is still charged to the
    observer entry point — found through an indirect subclass, with no
    engine call site at all."""
    rep = report_for(
        """
from kern import ProtocolObserver

class Base(ProtocolObserver):
    pass

class SneakyObserver(Base):
    def on_access(self, thread, heap):
        self._helper(heap)
    def _helper(self, heap):
        heap.dirty = True
"""
    )
    assert codes(rep) == ["EFF102"]


def test_self_ns_accounting_is_exempt():
    """The sanctioned self-overhead meter (wall clock folded into
    ``self.self_ns``) does not break observer purity."""
    rep = report_for(
        """
import time
from kern import ProtocolObserver

class MeteredObserver(ProtocolObserver):
    def __init__(self):
        self.self_ns = 0
    def on_access(self, thread, heap):
        t0 = time.perf_counter_ns()
        self.self_ns += time.perf_counter_ns() - t0
"""
    )
    assert rep.findings == []


def test_collector_lambda_is_observer_root():
    rep = report_for(
        """
class Registry:
    def register_collector(self, fn):
        pass

def bind(reg, engine):
    reg.register_collector(lambda r: engine.counters.update({"x": 1}))
"""
    )
    assert codes(rep) == ["EFF102"]
    assert any("telemetry collector" in how for how in rep.observer_roots.values())


# ---------------------------------------------------------------------------
# EFF2xx: clock separation
# ---------------------------------------------------------------------------


def test_eff201_host_time_into_schedule():
    rep = report_for(
        """
import time
from kern import EventKind

class Engine:
    def __init__(self, kernel):
        self.kernel = kernel
    def step(self):
        now = time.perf_counter_ns()
        self.kernel.schedule(EventKind.MESSAGE_DELIVER, now, 0, 0)
"""
    )
    assert codes(rep) == ["EFF201"]


def test_eff202_host_time_into_clock_field():
    rep = report_for(
        """
import time

class Engine:
    def __init__(self, kernel):
        self.kernel = kernel
    def sync(self):
        self.kernel.now_ns = time.time_ns()
"""
    )
    assert codes(rep) == ["EFF202"]


def test_host_time_taint_crosses_calls():
    """A helper *returning* host time taints its callers' uses."""
    rep = report_for(
        """
import time
from kern import EventKind

def wallclock():
    return time.perf_counter_ns()

class Engine:
    def __init__(self, kernel):
        self.kernel = kernel
    def step(self):
        self.kernel.schedule(EventKind.MESSAGE_DELIVER, wallclock(), 0, 0)
"""
    )
    assert "EFF201" in codes(rep)


def test_simulated_time_is_clean():
    rep = report_for(
        """
from kern import EventKind

class Engine:
    def __init__(self, kernel):
        self.kernel = kernel
    def step(self, delay_ns):
        self.kernel.schedule(
            EventKind.MESSAGE_DELIVER, self.kernel.time_ns + delay_ns, 0, 0
        )
"""
    )
    assert rep.findings == []


# ---------------------------------------------------------------------------
# suppression
# ---------------------------------------------------------------------------


def test_disable_comment_suppresses_but_documents():
    src = BAD_OBSERVER.replace(
        'heap.records[3].state = "dirty"',
        'heap.records[3].state = "dirty"  # effects: disable=EFF102',
    )
    rep = report_for(src)
    assert rep.findings == []
    assert [f.code for f in rep.suppressed] == ["EFF102"]


def test_disable_all_suppresses():
    src = BAD_OBSERVER.replace(
        'heap.records[3].state = "dirty"',
        'heap.records[3].state = "dirty"  # effects: disable=all',
    )
    rep = report_for(src)
    assert rep.findings == []


def test_disable_other_code_does_not_suppress():
    src = BAD_OBSERVER.replace(
        'heap.records[3].state = "dirty"',
        'heap.records[3].state = "dirty"  # effects: disable=EFF201',
    )
    rep = report_for(src)
    assert codes(rep) == ["EFF102"]


# ---------------------------------------------------------------------------
# the on-demand summary document
# ---------------------------------------------------------------------------


def test_summary_round_trip():
    rep = report_for(BAD_OBSERVER)
    doc = json.loads(json.dumps(build_doc(rep)))
    assert doc["version"] == SCHEMA_VERSION
    assert doc["functions"]["engine.BadObserver.on_access"]["effect"] == "writes-sim-state"
    assert "engine.BadObserver.on_access" in doc["observers"]["roots"]
    assert doc["counter_writes"] == {}


# ---------------------------------------------------------------------------
# the repo certifies itself
# ---------------------------------------------------------------------------


def test_repo_tree_has_no_unsuppressed_violations():
    rep = analyze_package("src")
    rendered = "\n".join(f.render() for f in rep.findings)
    assert rep.findings == [], f"unsuppressed effect violations:\n{rendered}"
    # the discovery layers actually found the repo's hooks
    assert len(rep.observer_roots) >= 10
    roots = rep.observer_roots
    # every shipped observer is found as ProtocolObserver overrides ...
    for q in (
        "repro.checks.sanitizer.ProtocolSanitizer.on_access",
        "repro.checks.racedetect.RaceDetector.on_notice",
        "repro.obs.tracing.SpanTracer.on_fault",
        "repro.obs.objprof.ObjectProfiler.on_oal_flush",
    ):
        assert roots[q].startswith("override of"), q
    # ... and the no-op vocabulary itself is not a root
    assert not any(q.startswith("repro.dsm.observer.") for q in roots)
