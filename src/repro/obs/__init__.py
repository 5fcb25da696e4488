"""Unified telemetry subsystem (metrics + span tracing + self-overhead).

Every subsystem of the simulated DJVM emits into one telemetry layer
with three pillars:

* :mod:`repro.obs.metrics` — a typed metrics registry (Counter / Gauge
  with label sets, deterministic snapshot ordering).  Each
  run has exactly one, ``HomeBasedLRC.metrics``, always on: the HLRC
  protocol counters live there, and network traffic, heap occupancy,
  migration and profiler statistics are folded in through
  snapshot-time collectors.
* :mod:`repro.obs.tracing` — a span tracer, attached like any other
  :class:`~repro.dsm.observer.ProtocolObserver` (``djvm.attach(
  SpanTracer())``).  Spans begin and end in *simulated* time (interval,
  barrier wait, fault, diff, migration, OAL flush, TCM window), so
  traces are bit-deterministic across runs.
* :mod:`repro.obs.overhead` — self-overhead accounting: the telemetry
  layer measures the wall-clock cost of its own observation (Mertz &
  Nunes: an adaptive monitor must know what *it* costs) and offers the
  overhead arithmetic the paper's tables are built from.

:class:`Telemetry` is the read side over one DJVM: ``Telemetry(djvm)``
binds the collectors to that run's registry and finds its tracer;
:mod:`repro.obs.export` renders the registry as a Prometheus-style text
snapshot and the tracer as Chrome-trace / Perfetto JSON.  The contract
shared with the sanitizer and race-detector gates holds here too:
simulated results are byte-identical with or without a tracer, and
collectors only read.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanTracer

__all__ = ["Telemetry", "MetricsRegistry", "SpanTracer"]


class Telemetry:
    """The telemetry view of one DJVM: its metrics registry with the
    snapshot-time collectors bound, its span tracer (if one is
    attached), and the self-overhead account both report into."""

    def __init__(self, djvm) -> None:
        self._djvm = djvm
        #: the run's one registry (``djvm.hlrc.metrics``).
        self.registry: MetricsRegistry = djvm.hlrc.metrics
        # Collectors only *read* simulation state, so binding cannot
        # perturb results; the suite and tracer are looked up at
        # snapshot time, so attach order does not matter.
        for collect in _COLLECTORS:
            self.registry.register_collector(lambda reg, fn=collect: fn(reg, djvm))

    @property
    def tracer(self) -> SpanTracer | None:
        """The first :class:`SpanTracer` on the DJVM's observer list."""
        return _tracer(self._djvm)

    # ------------------------------------------------------------------
    # outputs
    # ------------------------------------------------------------------

    @property
    def self_wall_ns(self) -> int:
        """Real (host) nanoseconds spent inside telemetry observation —
        the layer's own cost, excluded from every simulated result."""
        tracer = self.tracer
        tracer_ns = tracer.self_ns if tracer is not None else 0
        return tracer_ns + self.registry.self_ns

    def snapshot(self) -> dict:
        """Deterministically ordered ``{sample_name: value}`` snapshot."""
        return self.registry.snapshot()

    def summary(self, *, limit: int | None = None) -> str:
        """Human-readable metrics digest (one ``name value`` per line)."""
        lines = [f"{name} {value}" for name, value in self.registry.snapshot().items()]
        if limit is not None:
            lines = lines[:limit]
        tracer = self.tracer
        if tracer is not None:
            lines.append(f"# spans recorded: {len(tracer.spans)}")
        return "\n".join(lines)


def _tracer(djvm) -> SpanTracer | None:
    return next((o for o in djvm.hlrc.observers if isinstance(o, SpanTracer)), None)


# ---------------------------------------------------------------------------
# snapshot-time collectors (read-only views over subsystem state)
# ---------------------------------------------------------------------------


def _collect_network(reg: MetricsRegistry, djvm) -> None:
    stats = djvm.cluster.network.stats
    reg.gauge("network_messages_total", "messages delivered").set(stats.messages)
    reg.gauge("network_piggybacked_total", "payloads riding a carrier").set(
        stats.piggybacked_messages
    )
    reg.gauge("network_gos_bytes", "base-protocol traffic bytes").set(stats.gos_bytes)
    reg.gauge("network_oal_bytes", "profiling (OAL) traffic bytes").set(stats.oal_bytes)
    by_kind = reg.gauge("network_bytes", "traffic bytes by message kind", labels=("kind",))
    for kind, nbytes in stats.bytes_by_kind.items():
        by_kind.labels(kind=kind.value).set(nbytes)


def _collect_gos(reg: MetricsRegistry, djvm) -> None:
    gos = djvm.gos
    reg.gauge("gos_objects", "objects in the global object space").set(len(gos))
    reg.gauge("gos_bytes", "payload bytes in the global object space").set(gos.total_bytes())
    copies = sum(len(heap) for heap in djvm.hlrc.heaps.values())  # simlint: disable=SIM003 (integer sum; order cannot leak)
    reg.gauge("heap_copies", "copy records across every node heap").set(copies)


def _collect_migration(reg: MetricsRegistry, djvm) -> None:
    results = djvm.migration.results
    reg.gauge("migrations_total", "thread migrations performed").set(len(results))
    reg.gauge("migration_prefetched_objects", "objects shipped with migrations").set(
        sum(r.prefetched_objects for r in results)
    )
    reg.gauge("migration_prefetched_bytes", "bytes shipped with migrations").set(
        sum(r.prefetched_bytes for r in results)
    )


def _collect_kernel(reg: MetricsRegistry, djvm) -> None:
    interp = getattr(djvm, "_interpreter", None)
    if interp is None:
        return
    kernel = interp.kernel
    reg.gauge("event_kernel_scheduled", "events scheduled").set(kernel.scheduled)
    reg.gauge("event_kernel_popped", "events dispatched").set(kernel.popped)


def _collect_cpu(reg: MetricsRegistry, djvm) -> None:
    total_ns = 0
    profiling_ns = 0
    network_ns = 0
    for thread in djvm.threads:
        cpu = thread.cpu
        total_ns += cpu.total_ns
        profiling_ns += cpu.profiling_ns
        network_ns += cpu.network_wait_ns
    reg.gauge("cpu_total_ns", "simulated CPU ns across threads").set(total_ns)
    reg.gauge("cpu_profiling_ns", "simulated CPU ns in profiling subsystems").set(profiling_ns)
    reg.gauge("cpu_network_wait_ns", "simulated ns stalled on the network").set(network_ns)


def _collect_suite(reg: MetricsRegistry, djvm) -> None:
    suite = djvm.hlrc.suite
    if suite is None:
        return
    if suite.access_profiler is not None:
        ap = suite.access_profiler
        reg.gauge("profiler_oal_logged", "OAL entries logged").set(ap.total_logged)
        reg.gauge("profiler_oal_batches", "OAL batches flushed").set(ap.total_batches)
        reg.gauge("profiler_resample_passes", "cluster resampling passes").set(
            ap.resample_passes
        )
    reg.gauge("profiler_tcm_compute_ns", "master daemon TCM computing ns").set(
        suite.collector.tcm_compute_ns
    )
    reg.gauge("profiler_tcm_windows", "TCM windows processed").set(
        len(suite.collector.window_tcms)
    )
    _collect_sampling(reg, suite)


def _collect_sampling(reg: MetricsRegistry, suite) -> None:
    """Per-backend sampling decision statistics: counted decisions by
    outcome and the realized per-class sampled fraction.  Host-side
    observability only.  The counting rule is the same on every
    backend: each ``decision`` / ``decide_batch`` answer counts once,
    and the profilers' first touches ask at most once per object and
    rate generation (``SamplingPolicy.first_touches``), never for a
    class at gap 1; ``is_sampled`` / ``logged_bytes`` / ``scaled_bytes``
    count nothing."""
    policy = getattr(suite, "policy", None)
    backend = getattr(policy, "backend", None)
    if backend is None:
        return
    samples, skips = backend.totals()
    by_outcome = reg.gauge(
        "sampling_decisions_total",
        "evaluated sampling decisions by backend and outcome",
        labels=("backend", "outcome"),
    )
    by_outcome.labels(backend=backend.name, outcome="sample").set(samples)
    by_outcome.labels(backend=backend.name, outcome="skip").set(skips)
    realized = reg.gauge(
        "sampling_realized_rate",
        "sampled fraction among evaluated decisions per class",
        labels=("backend", "class"),
    )
    states = getattr(policy, "_states", {})
    for cid, frac in backend.realized_rates().items():  # simlint: disable=SIM003 (realized_rates() is sorted-key by construction)
        st = states.get(cid)
        cname = st.jclass.name if st is not None else str(cid)
        realized.labels(**{"backend": backend.name, "class": cname}).set(frac)


def _collect_tracer(reg: MetricsRegistry, djvm) -> None:
    tracer = _tracer(djvm)
    if tracer is None:
        return
    reg.gauge("trace_spans_total", "spans recorded").set(len(tracer.spans))
    by_name = reg.gauge("trace_spans", "spans recorded by name", labels=("name",))
    for name, count in sorted(tracer.counts.items()):
        by_name.labels(name=name).set(count)


_COLLECTORS = (
    _collect_network,
    _collect_gos,
    _collect_migration,
    _collect_kernel,
    _collect_cpu,
    _collect_suite,
    _collect_tracer,
)
