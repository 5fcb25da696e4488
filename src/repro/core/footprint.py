"""Sticky-set footprinting (paper Section III.A step 1).

The *sticky set* of a migrant thread is the set of objects that would
predictably fault again after a migration: objects accessed both before
and after the migration point within one HLRC interval.  Correlation
tracking cannot see this — it logs each object at most once per interval
— so footprinting tracks sampled objects *repeatedly* within the
interval to capture access frequency, yielding a per-class byte estimate
(the **sticky-set footprint**) of what migrating the thread would drag
across the network.

Because repeated tracking is strictly more expensive than at-most-once
logging, two throttles from the paper apply:

* a **lower bound on the sampling gap** (set via
  ``SamplingPolicy.set_min_gap``; under a stateless sampling backend
  the same clamp caps each class's inclusion probability at
  ``1/min_gap``, since backends derive λ / thresholds from the realized
  gap), and
* a **timer** alternating tracking-on and tracking-off phases
  (``period_ms`` with ``duty`` fraction on); accesses during off phases
  are invisible, trading accuracy for cost — exactly the Nonstop vs
  Timer-based columns of the paper's overhead table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.sampling import SamplingPolicy
from repro.dsm.intervals import IntervalRecord
from repro.heap.objects import HeapObject
from repro.sim.costs import CostModel

NS_PER_MS = 1_000_000

_NO_GOS = (
    "StickySetFootprinter has no global object space attached — call "
    "attach_gos() (the ProfilerSuite does this automatically)"
)


@dataclass(slots=True)
class _ObjStats:
    """Per-(thread, interval, object) tracking statistics."""

    #: tracking phases the object trapped in (not raw accesses).
    count: int
    #: the latest of them; phases only grow along a thread's clock, so
    #: "already trapped in this phase" is one comparison.
    last_phase: int


class StickySetFootprinter:
    """Protocol hook performing repeated sampled access tracking.

    A *re-arming* hook (see ``repro.dsm.hlrc.ProtocolHooks``): its
    first-touch entry decides which objects are sampled and re-arms
    those for the interval, and the engine then calls its tracking entry
    :meth:`on_rearmed_access` at every access of a re-armed object.  An
    unsampled object never re-enters it.  The keyword :meth:`on_access`
    (the oracle fan-out) decides and tracks at every access instead.
    """

    __slots__ = (
        "policy",
        "_policy_states",
        "costs",
        "timer_period_ns",
        "duty",
        "min_accesses",
        "_stats",
        "_interval_start",
        "interval_footprints",
        "interval_tracked",
        "tracked_accesses",
        "_gos",
        "_tracking",
        "_track_ns",
    )

    def __init__(
        self,
        policy: SamplingPolicy,
        costs: CostModel,
        *,
        timer_period_ms: float | None = None,
        duty: float = 0.5,
        min_accesses: int = 2,
    ) -> None:
        if timer_period_ms is not None and timer_period_ms <= 0:
            raise ValueError(f"timer period must be > 0 ms, got {timer_period_ms}")
        if not 0 < duty <= 1:
            raise ValueError(f"duty cycle must be in (0, 1], got {duty}")
        if min_accesses < 1:
            raise ValueError(f"min_accesses must be >= 1, got {min_accesses}")
        self.policy = policy
        self._policy_states = policy._states  # hot-path alias; mutated in place
        self.costs = costs
        self._track_ns = costs.gos_trap_ns + costs.footprint_track_ns  # the cost model is frozen
        #: None = nonstop tracking; otherwise on/off phases of this period.
        self.timer_period_ns = None if timer_period_ms is None else int(timer_period_ms * NS_PER_MS)
        self.duty = duty
        #: tracking phases an object must trap in within one interval to
        #: count as sticky.
        self.min_accesses = min_accesses
        #: thread_id -> {obj_id: _ObjStats} for the open interval.
        self._stats: dict[int, dict[int, _ObjStats]] = {}
        #: thread_id -> interval start time (phase reference).
        self._interval_start: dict[int, int] = {}
        #: completed-interval footprints kept for averaging:
        #: thread_id -> list of {class_name: bytes}.
        self.interval_footprints: dict[int, list[dict[str, int]]] = {}
        #: completed-interval tracked sampled object ids (landmark
        #: candidates for resolution): thread_id -> list of sets.
        self.interval_tracked: dict[int, list[set[int]]] = {}
        self.tracked_accesses = 0
        #: attached by the ProfilerSuite (needed to resolve object classes).
        self._gos = None
        #: the tracking entries sampled ids are re-armed for.
        self._tracking = (self.on_rearmed_access,)

    # ------------------------------------------------------------------
    # ProtocolHooks interface
    # ------------------------------------------------------------------

    def on_interval_open(self, thread) -> None:
        """ProtocolHooks: a new HLRC interval just opened for ``thread``."""
        self._stats[thread.thread_id] = {}
        self._interval_start[thread.thread_id] = thread.clock.now_ns

    def on_access(
        self,
        thread,
        obj: HeapObject,
        *,
        is_write: bool,
        n_elems: int,
        elem_off: int,
        repeat: int,
        real_fault: bool,
    ) -> None:
        """ProtocolHooks: one access op executed — the keyword fan-out,
        which decides and tracks at every access."""
        if thread.thread_id in self._stats and self.policy.decision(obj)[0]:
            self.on_rearmed_access(thread, obj.obj_id)

    def fast_on_access(self, thread, ids, faulted) -> None:
        """The first-touch entry: re-arm the sampled ones among ``ids``
        for the rest of the interval.  Whether an object is sampled
        depends on the object and its class's gap epoch, never on the
        clock, and rates change only at an interval close, so the first
        touch decides for the whole interval, in any tracking phase.
        Charges nothing: the tracking entry, called right after for each
        re-armed id, does."""
        if thread.thread_id not in self._stats:
            return None
        gos = self._gos
        if gos is None:
            raise RuntimeError(_NO_GOS)
        objects = gos._objects
        states = self._policy_states
        decision = self.policy.decision
        armed = []
        for oid in ids:
            # The per-class epoch memo probed inline, decision() on a
            # miss, a stale cache, or a backend that does not memoize.
            obj = objects[oid]
            st = states.get(obj.jclass.class_id)
            dec = st.decisions.get(oid) if st is not None and st.cache_epoch == st.epoch else None
            if dec is None:
                dec = decision(obj)
            if dec[0]:
                armed.append(oid)
        if armed:
            thread.current_interval.rearm(armed, self._tracking)
        return None

    def on_rearmed_access(self, thread, obj_id: int) -> None:
        """The tracking entry: one access of a sampled object, at the
        thread's clock."""
        stats = self._stats.get(thread.thread_id)
        if stats is None:
            return
        now = thread.clock._now_ns
        period = self.timer_period_ns
        if period is None:
            # Nonstop mode: synthesize phases at 1 ms so the multi-phase
            # stickiness signal still exists.
            phase = now // NS_PER_MS
        else:
            since_open = now - self._interval_start[thread.thread_id]
            if (since_open % period) / period >= self.duty:
                return  # tracking-off phase: the access is invisible
            phase = since_open // period
        # Repeated tracking works by re-resetting sampled objects to
        # false-invalid at each tracking phase: the first access of each
        # phase traps (and is what gets counted — the access-frequency
        # signal has phase granularity); later accesses in the same phase
        # run the fast path free of charge.
        entry = stats.get(obj_id)
        if entry is None:
            stats[obj_id] = _ObjStats(1, phase)
        elif entry.last_phase == phase:
            return
        else:
            entry.count += 1
            entry.last_phase = phase
        ns = self._track_ns
        thread.cpu.footprinting_ns += ns
        thread.clock._now_ns += ns
        self.tracked_accesses += 1

    def on_interval_close(self, thread, interval: IntervalRecord, sync_dst: int | None) -> None:
        """ProtocolHooks: ``thread`` closed ``interval``."""
        tid = thread.thread_id
        stats = self._stats.pop(tid, None)
        self._interval_start.pop(tid, None)
        if stats is None:
            return
        fp = self._footprint_from_stats(stats)
        # Record even empty footprints: the average must be taken over
        # *all* intervals or estimates at different sampling rates get
        # different denominators and stop being comparable.
        self.interval_footprints.setdefault(tid, []).append(fp)
        self.interval_tracked.setdefault(tid, []).append(set(stats))

    # ------------------------------------------------------------------
    # footprint estimation
    # ------------------------------------------------------------------

    def _sticky_ids(self, stats: dict[int, _ObjStats]) -> list[int]:
        """The sticky predicate, stated once: objects that trapped in at
        least ``min_accesses`` tracking phases, in recording order."""
        return [  # simlint: disable=SIM003 (result order must mirror the interval's access-recording order)
            oid for oid, entry in stats.items() if entry.count >= self.min_accesses
        ]

    def _footprint_from_stats(self, stats: dict[int, _ObjStats]) -> dict[str, int]:
        """Per-class sticky bytes: each sticky sampled object, scaled by
        the gap (Horvitz-Thompson) to estimate the class total."""
        fp: dict[str, int] = {}
        gos = self._gos
        if gos is None:
            if stats:
                raise RuntimeError(_NO_GOS)
            return fp
        for obj_id in self._sticky_ids(stats):
            obj = gos.get(obj_id)
            fp[obj.jclass.name] = fp.get(obj.jclass.name, 0) + self.policy.scaled_bytes(obj)
        return fp

    def attach_gos(self, gos) -> None:
        """Attach the global object space (needed to resolve classes)."""
        self._gos = gos

    def live_footprint(self, thread) -> dict[str, int]:
        """Footprint of the thread's *open* interval at the current
        instant — what the load balancer consults when weighing a
        migration (objects that already trapped in >= min_accesses
        tracking phases are the predicted re-fetch set)."""
        return self._footprint_from_stats(self._stats.get(thread.thread_id, {}))

    def live_sticky_candidates(self, thread) -> list[int]:
        """Object ids currently qualifying as sticky in the open interval."""
        return self._sticky_ids(self._stats.get(thread.thread_id, {}))

    def recent_tracked_ids(self, thread, *, window: int = 3) -> set[int]:
        """Sampled object ids the footprinting pass tracked recently —
        the landmark candidates resolution should trust.  Combines the
        live open-interval stats with the last ``window`` non-empty
        closed-interval sets."""
        out: set[int] = set(self._stats.get(thread.thread_id, {}))
        closed = [s for s in self.interval_tracked.get(thread.thread_id, []) if s]
        for s in closed[-window:]:
            out |= s
        return out

    def average_footprint(self, thread_id: int) -> dict[str, float]:
        """Average per-class footprint over *all* of the thread's closed
        intervals (the quantity Table IV's accuracy comparison uses)."""
        fps = self.interval_footprints.get(thread_id, [])
        if not fps:
            return {}
        classes: set[str] = set()
        for fp in fps:
            classes.update(fp)
        return {c: sum(fp.get(c, 0) for fp in fps) / len(fps) for c in sorted(classes)}

    def recent_footprint(self, thread_id: int, *, window: int = 3) -> dict[str, float]:
        """Per-class element-wise maximum over the last ``window``
        non-empty interval footprints — the budget estimator sticky-set
        resolution uses.  A migrating thread's re-fetch cost is governed
        by the interval it is *in* (typically a heavy compute phase), so
        short synchronization-only intervals must not dilute the budget
        the way they do in a lifetime average."""
        fps = [fp for fp in self.interval_footprints.get(thread_id, []) if fp]
        if not fps:
            return {}
        recent = fps[-window:]
        classes: set[str] = set()
        for fp in recent:
            classes.update(fp)
        return {c: float(max(fp.get(c, 0) for fp in recent)) for c in sorted(classes)}
