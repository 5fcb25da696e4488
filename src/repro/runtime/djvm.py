"""The DJVM facade: one object wiring cluster, global object space,
HLRC protocol, threads, migration engine and profiler hooks together —
the simulated counterpart of a booted JESSICA2 instance (paper Fig. 2).
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import astuple, dataclass, field

from repro.dsm.hlrc import HomeBasedLRC
from repro.heap.heap import GlobalObjectSpace
from repro.heap.jclass import JClass
from repro.heap.objects import HeapObject
from repro.runtime.interpreter import Interpreter, TimerHook
from repro.runtime.migration import MigrationEngine
from repro.runtime.thread import SimThread, ThreadState
from repro.sim.cluster import Cluster
from repro.sim.costs import CostModel, CpuAccounting
from repro.sim.network import Network, TrafficStats

#: the keys of :attr:`RunResult.counters`, in order.
RUN_COUNTERS = ("faults", "invalidations", "diffs", "notices", "intervals")


@dataclass
class RunResult:
    """Outcome of one simulated execution."""

    #: wall-clock analogue: the latest thread finish time (ms).
    execution_time_ms: float
    #: per-thread CPU accounting, keyed by thread id.
    thread_cpu: dict[int, CpuAccounting]
    #: network traffic counters for the whole run.
    traffic: TrafficStats
    #: protocol event counters (faults, diffs, invalidations, ...).
    counters: dict[str, int]
    #: total ops executed across threads.
    ops_executed: int
    #: per-thread finish times (ms).
    thread_finish_ms: dict[int, float] = field(default_factory=dict)

    @property
    def total_cpu(self) -> CpuAccounting:
        """Aggregated CPU accounting across every thread."""
        total = CpuAccounting()
        for cpu in self.thread_cpu.values():  # simlint: disable=SIM003 (keyed by thread id and populated in thread-id order)
            total.merge(cpu)
        return total

    def summary(self) -> str:
        """Human-readable one-paragraph digest."""
        total = self.total_cpu
        return (
            f"execution {self.execution_time_ms:.2f} ms | "
            f"faults {self.counters.get('faults', 0)} | "
            f"intervals {self.counters.get('intervals', 0)} | "
            f"GOS traffic {self.traffic.gos_bytes / 1024:.1f} KB | "
            f"OAL traffic {self.traffic.oal_bytes / 1024:.1f} KB | "
            f"profiling CPU {total.profiling_ns / 1e6:.2f} ms"
        )


def _sha(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


def run_fingerprint(djvm: "DJVM", result: RunResult, suite=None) -> dict[str, object]:
    """The one definition of "byte-identical": everything a finished run
    left behind that a paper table, a checksum or a later protocol step
    could read.  Two runs are identical iff their fingerprints are
    equal; a pure :class:`~repro.dsm.observer.ProtocolObserver` leaves
    every component unchanged (``tests/dsm/test_observers.py`` proves
    each component catches a seeded violator).  ``suite`` adds the TCM
    of a :class:`~repro.core.profiler.ProfilerSuite`.  The large tables
    (copies, notice log) are folded to SHA-256 digests so an unequal
    pair names the component that moved without printing it; the
    notice log is kept only as its running digest."""
    hlrc = djvm.hlrc
    return {
        "execution_time_ms": result.execution_time_ms,
        "thread_finish_ms": tuple(sorted(result.thread_finish_ms.items())),
        "thread_cpu": tuple(
            (tid, astuple(cpu)) for tid, cpu in sorted(result.thread_cpu.items())
        ),
        "counters": tuple(sorted(result.counters.items())),
        "ops_executed": result.ops_executed,
        "traffic_bytes": tuple(
            (kind.value, n)
            for kind, n in sorted(
                result.traffic.bytes_by_kind.items(), key=lambda kv: kv[0].value
            )
        ),
        "tcm_sha256": (
            hashlib.sha256(suite.tcm().tobytes()).hexdigest() if suite is not None else None
        ),
        "copies_sha256": _sha(
            [
                (
                    node_id,
                    [
                        (obj_id, c.real_state.value, c.fetched_version, c.has_twin, c.dirty_bytes)
                        for obj_id in hlrc.copy_ids(node_id)
                        for c in (hlrc.copy(node_id, obj_id),)
                    ],
                )
                for node_id in sorted(hlrc.heaps)
            ]
        ),
        "notices_sha256": hlrc.notice_digest(),
        "interval_counters": tuple((t.thread_id, t.interval_counter) for t in djvm.threads),
    }


class DJVM:
    """A simulated distributed JVM instance."""

    def __init__(
        self,
        n_nodes: int = 8,
        *,
        costs: CostModel | None = None,
        network: Network | None = None,
        keep_event_trace: bool = False,
        replay: str = "vector",
    ) -> None:
        if replay not in ("vector", "scalar"):
            raise ValueError(f"replay must be 'vector' or 'scalar', got {replay!r}")
        #: access replay mode handed to the interpreter ("vector" one-pass
        #: replay of unobserved runs or the "scalar" per-op oracle).
        self.replay = replay
        self.cluster = Cluster(
            n_nodes,
            costs=costs if costs is not None else CostModel.gideon300(),
            network=network,
        )
        self.gos = GlobalObjectSpace()
        self.hlrc = HomeBasedLRC(self.gos, self.cluster)
        self.migration = MigrationEngine(self.hlrc, self.cluster)
        #: keep the event kernel's (time_ns, kind, actor) audit trace.
        self.keep_event_trace = keep_event_trace
        self.threads: list[SimThread] = []
        self.timers: list[TimerHook] = []
        self._interpreter: Interpreter | None = None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    @property
    def costs(self) -> CostModel:
        """The cluster's CPU cost model."""
        return self.cluster.costs

    @property
    def registry(self):
        """The DJVM's class registry."""
        return self.gos.registry

    def define_class(
        self,
        name: str,
        instance_size: int = 0,
        *,
        is_array: bool = False,
        element_size: int = 0,
    ) -> JClass:
        """Define a class in the DJVM's class registry."""
        return self.gos.registry.define(
            name, instance_size, is_array=is_array, element_size=element_size
        )

    def allocate(
        self, jclass, home_node: int, *, length: int = 0, refs=(), site: str | None = None
    ) -> HeapObject:
        """Allocate a shared object homed at ``home_node`` (``site`` is
        an optional allocation-site label for per-site reports)."""
        return self.gos.allocate(jclass, home_node, length=length, refs=refs, site=site)

    def export_ir(self, programs: dict[int, object]):
        """Export the static workload IR (programs + placement + object
        graph) of this built DJVM for :mod:`repro.checks.staticflow`.

        ``programs`` iterables are compiled (and consumed) here; a
        subsequent :meth:`run` needs its own fresh streams."""
        from repro.runtime.ir import export_ir

        return export_ir(self, programs)

    def spawn_thread(self, node_id: int) -> SimThread:
        """Create one application thread on ``node_id``."""
        if not 0 <= node_id < len(self.cluster):
            raise ValueError(f"node {node_id} out of range")
        thread = SimThread(thread_id=len(self.threads), node_id=node_id)
        self.threads.append(thread)
        self.cluster[node_id].thread_ids.add(thread.thread_id)
        return thread

    def spawn_threads(
        self, n_threads: int, *, placement: str | list[int] = "round_robin"
    ) -> list[SimThread]:
        """Spawn ``n_threads`` with a placement policy: "round_robin",
        "block" (contiguous thread ranges per node, SPLASH-2 style), or
        an explicit thread->node assignment list (e.g. a partitioner's
        output)."""
        n_nodes = len(self.cluster)
        if isinstance(placement, list):
            if len(placement) != n_threads:
                raise ValueError(
                    f"placement list has {len(placement)} entries for "
                    f"{n_threads} threads"
                )
            return [self.spawn_thread(node) for node in placement]
        created = []
        for i in range(n_threads):
            if placement == "round_robin":
                node = i % n_nodes
            elif placement == "block":
                node = min(i * n_nodes // n_threads, n_nodes - 1)
            else:
                raise ValueError(f"unknown placement policy {placement!r}")
            created.append(self.spawn_thread(node))
        return created

    def add_hook(self, hook) -> None:
        """Attach a protocol hook (profiler) to the HLRC engine."""
        self.hlrc.add_hook(hook)

    def add_timer(self, timer: TimerHook) -> None:
        """Attach a timer-driven profiler component."""
        for method in ("maybe_fire", "next_fire_ns"):
            if not callable(getattr(timer, method, None)):
                raise TypeError(
                    f"timer hooks must implement {method}(thread), "
                    f"{type(timer).__name__} does not"
                )
        self.timers.append(timer)

    def attach(self, observer):
        """Attach one :class:`~repro.dsm.observer.ProtocolObserver`
        (sanitizer, race detector, span tracer, object profiler, interval
        history, a test recorder …) to the run's single observer list;
        returns it.  Observers are
        pure, so any set of them leaves :func:`run_fingerprint` unchanged."""
        return self.hlrc.attach(observer)

    @property
    def event_trace(self) -> list[tuple[int, str, int]]:
        """The event kernel's dispatched-event trace from the last run
        (empty unless constructed with ``keep_event_trace=True``)."""
        if self._interpreter is None:
            return []
        return self._interpreter.kernel.trace

    @property
    def replay_routing(self) -> dict[str, int]:
        """How the last run's vector engine routed access runs (see
        :meth:`~repro.runtime.vector.VectorEngine.routing`); empty under
        scalar replay or before a run, all zeros when nothing took the
        one pass (an observer of accesses or faults, say)."""
        interp = self._interpreter
        if interp is None or interp._vector is None:
            return {}
        return interp._vector.routing()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, programs: dict[int, object]) -> RunResult:
        """Execute one program per thread to completion.

        A DJVM instance runs once: threads, heaps and protocol state are
        consumed by the run (re-running on spent threads would silently
        return an empty result, so it is rejected).

        The heap that exists when the run starts — programs, GOS objects
        and their ref lists, which all live through it — is frozen out
        of the cyclic collector for the run (``gc.freeze``), so in-run
        collections scan only what the run allocates.  Only when the
        collector is enabled and the caller froze nothing: a caller's
        GC state is left as it was, and is restored if the run raises."""
        spent = [t.thread_id for t in self.threads if t.state is not ThreadState.RUNNABLE]
        if spent:
            raise RuntimeError(
                f"threads {spent} already ran; build a fresh DJVM per run"
            )
        interp = Interpreter(
            self.hlrc,
            self.threads,
            keep_event_trace=self.keep_event_trace,
            replay=self.replay,
        )
        interp.timers = self.timers
        interp.migration_engine = self.migration
        interp.attach_programs(programs)
        self._interpreter = interp
        # Not gc.disable(): cycles the run creates must still be collected.
        quiet = gc.isenabled() and gc.get_freeze_count() == 0
        if quiet:
            gc.freeze()
        try:
            interp.run()
        finally:
            if quiet:
                gc.unfreeze()
        for thread in self.threads:
            if thread.state is not ThreadState.DONE:  # pragma: no cover - guard
                raise RuntimeError(f"thread {thread.thread_id} did not finish")
        finish = {t.thread_id: t.clock.now_ms for t in self.threads}
        value = self.hlrc.metrics.value
        return RunResult(
            execution_time_ms=max(finish.values()),
            thread_cpu={t.thread_id: t.cpu for t in self.threads},
            traffic=self.cluster.network.stats,
            # The registry's ``hlrc_<key>_total`` counters; the key order
            # is the one every ledger and checksum was recorded in.
            counters={key: value(f"hlrc_{key}_total") for key in RUN_COUNTERS},
            ops_executed=interp.ops_executed,
            thread_finish_ms=finish,
        )
