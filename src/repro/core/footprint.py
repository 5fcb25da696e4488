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

from bisect import bisect_left
from collections import Counter, deque
from itertools import compress, repeat
from operator import add, floordiv, mod, sub

from repro.core.sampling import SamplingPolicy
from repro.dsm.intervals import NO_BOUND, IntervalRecord
from repro.heap.objects import HeapObject
from repro.sim.costs import CostModel

NS_PER_MS = 1_000_000

#: closed intervals whose tracked sets a footprinter keeps per thread
#: (the landmark window resolution reads).
RECENT_TRACKED = 3

_NO_GOS = (
    "StickySetFootprinter has no global object space attached — call "
    "attach_gos() (the ProfilerSuite does this automatically)"
)


class StickySetFootprinter:
    """Protocol hook performing repeated sampled access tracking.

    The *re-arming* hook (see ``repro.dsm.hlrc.ProtocolHooks``): its
    first-touch entry re-arms the sampled objects for the interval, and
    the engine then hands its tracking entry :meth:`on_rearmed_access`
    every access of a re-armed object, a run's at a time.  An unsampled
    object never re-enters it.  The keyword :meth:`on_access` (the
    oracle fan-out) decides and tracks at every access instead.

    Per thread, the open interval's tracking state is two dicts
    over the objects tracked so far, in first-tracked order: the
    tracking phase each last trapped in (phases only grow along a
    thread's clock, so "already trapped in this phase" is one
    comparison) and how many phases each trapped in; and a third over
    the sampled objects: the Horvitz-Thompson bytes the sampling
    decision gave each at its first touch, which is what the interval's
    footprint weighs it by — a rate moved at this interval's close
    (the adaptive controller, on an earlier hook's delivery) must not
    reweigh what was sampled under the old one.
    """

    __slots__ = (
        "policy",
        "costs",
        "timer_period_ns",
        "duty",
        "min_accesses",
        "_last_phase",
        "_count",
        "_scaled",
        "_interval_start",
        "interval_footprints",
        "recent_tracked",
        "tracked_ever",
        "tracked_accesses",
        "_gos",
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
        self.costs = costs
        self._track_ns = costs.gos_trap_ns + costs.footprint_track_ns  # the cost model is frozen
        #: None = nonstop tracking; otherwise on/off phases of this period.
        self.timer_period_ns = None if timer_period_ms is None else int(timer_period_ms * NS_PER_MS)
        self.duty = duty
        #: tracking phases an object must trap in within one interval to
        #: count as sticky.
        self.min_accesses = min_accesses
        #: thread_id -> {obj_id: latest tracking phase} for the open interval.
        self._last_phase: dict[int, dict[int, int]] = {}
        #: thread_id -> {obj_id: tracking phases trapped in}, parallel.
        self._count: dict[int, Counter] = {}
        #: thread_id -> {obj_id: scaled bytes at its first touch}.
        self._scaled: dict[int, dict[int, int]] = {}
        #: thread_id -> interval start time (phase reference).
        self._interval_start: dict[int, int] = {}
        #: completed-interval footprints kept for averaging:
        #: thread_id -> list of {class_name: bytes}.
        self.interval_footprints: dict[int, list[dict[str, int]]] = {}
        #: the tracked sampled object ids of the thread's last
        #: :data:`RECENT_TRACKED` non-empty closed intervals (landmark
        #: candidates for resolution): thread_id -> deque of sets.
        self.recent_tracked: dict[int, deque[set[int]]] = {}
        #: thread_id -> every sampled object id tracked in its closed
        #: intervals (their union): kept instead of one set per interval,
        #: so the footprinter's state does not grow with run length.
        self.tracked_ever: dict[int, set[int]] = {}
        self.tracked_accesses = 0
        #: attached by the ProfilerSuite (needed to resolve object classes).
        self._gos = None

    # ------------------------------------------------------------------
    # ProtocolHooks interface
    # ------------------------------------------------------------------

    def on_interval_open(self, thread) -> None:
        """ProtocolHooks: a new HLRC interval just opened for ``thread``."""
        tid = thread.thread_id
        self._last_phase[tid] = {}
        self._count[tid] = Counter()
        self._scaled[tid] = {}
        self._interval_start[tid] = thread.clock.now_ns

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
        if thread.thread_id not in self._count:
            return
        sampled, _, scaled = self.policy.decision(obj)
        if sampled:
            self._scaled[thread.thread_id].setdefault(obj.obj_id, scaled)
            self.on_rearmed_access(thread, (obj.obj_id,), (thread.clock._now_ns,), NO_BOUND)

    def fast_on_access(self, thread, ids, faulted) -> None:
        """The first-touch entry: re-arm the sampled ones among ``ids``
        for the rest of the interval.  Whether an object is sampled
        depends on the object and its class's gap epoch, never on the
        clock, and rates change only at an interval close, so the first
        touch decides for the whole interval, in any tracking phase —
        the decision the policy made for these ids once
        (:meth:`SamplingPolicy.first_touches`), which also gives each
        its footprint weight.  Charges nothing: the
        tracking entry, handed each re-armed access, the arming first
        touch included, does."""
        if thread.thread_id not in self._count:
            return None
        gos = self._gos
        if gos is None:
            raise RuntimeError(_NO_GOS)
        sampled, scaled = self.policy.first_touches(ids, gos)
        weights = zip(ids, scaled)
        if sampled is not None:
            ids, weights = compress(ids, sampled), compress(weights, sampled)
        thread.current_interval.rearmed.update(ids)
        self._scaled[thread.thread_id].update(weights)
        return None

    def on_rearmed_access(self, thread, ids, clocks, bound: int) -> tuple[int, int]:
        """The tracking entry (the batch contract of ``ProtocolHooks``):
        accesses of sampled objects ``ids``, in order, ``clocks[k]``
        the thread's clock at the k-th before this call's charges.  Each
        sees its clock plus what the call charged before it.  Tracks the
        accesses up to the first whose clock so computed has reached
        ``bound``, charges the clock and the footprinting bucket, and
        returns ``(accesses tracked, ns charged)``.

        Repeated tracking works by re-resetting sampled objects to
        false-invalid at each tracking phase: the first access of each
        phase traps (and is what gets counted — the access-frequency
        signal has phase granularity); later accesses in the same phase
        run the fast path free of charge, and accesses in a timer's
        tracking-off phase are invisible."""
        tid = thread.thread_id
        last_phase = self._last_phase.get(tid)
        if last_phase is None:
            return len(ids), 0
        bulk = self._all_trap(tid, last_phase, ids, clocks, bound) if len(ids) > 1 else None
        if bulk is not None:
            ids, phases = bulk
            last_phase.update(zip(ids, phases))
            self._count[tid].update(ids)
            done = tracked = len(ids)
        else:
            done, tracked = self._track_each(tid, last_phase, ids, clocks, bound)
        ns = tracked * self._track_ns
        thread.cpu.footprinting_ns += ns
        thread.clock._now_ns += ns
        self.tracked_accesses += tracked
        return done, ns

    def _all_trap(self, tid, last_phase, ids, clocks, bound) -> tuple | None:
        """Nearly every access traps.  Assume that all of them up to
        ``bound`` do, and check it: ``(ids tracked, their phases)`` when
        it holds, None when some access repeats its object's phase or
        falls in a tracking-off phase."""
        n = len(ids)
        track_ns = self._track_ns
        charged = range(0, n * track_ns, track_ns) if track_ns else repeat(0)
        if clocks[-1] + (n - 1) * track_ns >= bound:
            now = list(map(add, clocks, charged))
            n = bisect_left(now, bound)
            if not n:
                return ids[:0], []
            ids, clocks, charged = ids[:n], now[:n], repeat(0)
        period = self.timer_period_ns
        if period is None:
            # Nonstop mode: synthesize phases at 1 ms so the multi-phase
            # stickiness signal still exists.
            phases = list(map(floordiv, map(add, clocks, charged), repeat(NS_PER_MS)))
        else:
            since = list(map(sub, map(add, clocks, charged), repeat(self._interval_start[tid])))
            if max(map(mod, since, repeat(period))) / period >= self.duty:
                return None
            phases = list(map(floordiv, since, repeat(period)))
        if len(set(ids)) < n and len(set(zip(ids, phases))) < n:
            return None
        if not last_phase.items().isdisjoint(zip(ids, phases)):
            return None
        return ids, phases

    def _track_each(self, tid, last_phase, ids, clocks, bound) -> tuple[int, int]:
        """The exact loop: ``(accesses tracked, accesses that trapped)``."""
        count = self._count[tid]
        track_ns = self._track_ns
        period = self.timer_period_ns
        start = self._interval_start[tid]
        trapped = 0
        for k, (oid, clock) in enumerate(zip(ids, clocks)):
            now = clock + trapped * track_ns
            if now >= bound:
                return k, trapped
            if period is None:
                phase = now // NS_PER_MS
            else:
                since_open = now - start
                if (since_open % period) / period >= self.duty:
                    continue  # tracking-off phase: the access is invisible
                phase = since_open // period
            if last_phase.get(oid) == phase:
                continue
            last_phase[oid] = phase
            count[oid] = count.get(oid, 0) + 1
            trapped += 1
        return len(ids), trapped

    def on_interval_close(self, thread, interval: IntervalRecord, sync_dst: int | None) -> None:
        """ProtocolHooks: ``thread`` closed ``interval``."""
        tid = thread.thread_id
        count = self._count.pop(tid, None)
        scaled = self._scaled.pop(tid, None)
        self._last_phase.pop(tid, None)
        self._interval_start.pop(tid, None)
        if count is None:
            return
        fp = self._footprint_from_counts(count, scaled)
        # Record even empty footprints: the average must be taken over
        # *all* intervals or estimates at different sampling rates get
        # different denominators and stop being comparable.
        self.interval_footprints.setdefault(tid, []).append(fp)
        if count:
            tracked = set(count)
            self.recent_tracked.setdefault(tid, deque(maxlen=RECENT_TRACKED)).append(tracked)
            self.tracked_ever.setdefault(tid, set()).update(tracked)

    # ------------------------------------------------------------------
    # footprint estimation
    # ------------------------------------------------------------------

    def _sticky_ids(self, count: dict[int, int]) -> list[int]:
        """The sticky predicate, stated once: objects that trapped in at
        least ``min_accesses`` tracking phases, in recording order."""
        return [  # simlint: disable=SIM003 (result order must mirror the interval's access-recording order)
            oid for oid, n in count.items() if n >= self.min_accesses
        ]

    def _footprint_from_counts(
        self, count: dict[int, int], scaled: dict[int, int]
    ) -> dict[str, int]:
        """Per-class sticky bytes: each sticky sampled object at the
        scaled bytes (Horvitz-Thompson) it was sampled under, to
        estimate the class total."""
        fp: dict[str, int] = {}
        gos = self._gos
        if gos is None:
            if count:
                raise RuntimeError(_NO_GOS)
            return fp
        names = [jclass.name for jclass in gos.registry]
        cls = gos.cls
        for obj_id in self._sticky_ids(count):
            name = names[cls[obj_id]]
            fp[name] = fp.get(name, 0) + scaled[obj_id]
        return fp

    def attach_gos(self, gos) -> None:
        """Attach the global object space (needed to resolve classes)."""
        self._gos = gos

    def live_footprint(self, thread) -> dict[str, int]:
        """Footprint of the thread's *open* interval at the current
        instant — what the load balancer consults when weighing a
        migration (objects that already trapped in >= min_accesses
        tracking phases are the predicted re-fetch set)."""
        tid = thread.thread_id
        return self._footprint_from_counts(self._count.get(tid, {}), self._scaled.get(tid, {}))

    def live_sticky_candidates(self, thread) -> list[int]:
        """Object ids currently qualifying as sticky in the open interval."""
        return self._sticky_ids(self._count.get(thread.thread_id, {}))

    def recent_tracked_ids(self, thread) -> set[int]:
        """Sampled object ids the footprinting pass tracked recently —
        the landmark candidates resolution should trust.  Combines the
        live open-interval stats with the kept sets of the last
        :data:`RECENT_TRACKED` non-empty closed intervals."""
        out: set[int] = set(self._count.get(thread.thread_id, {}))
        for s in self.recent_tracked.get(thread.thread_id, ()):
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
