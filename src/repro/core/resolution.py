"""Sticky-set resolution (paper Section III.A step 3).

Invoked lazily when a thread migration is decided: starting from the
thread's stack-invariant references (topmost first), trace the object
graph selecting prefetch candidates until the per-class sticky-set
footprint estimated by object sampling is met.  Two paper-specific
guards distinguish this from plain connectivity prefetching:

* **Landmark guidance** — sampled objects are scattered uniformly over
  the true sticky set, so a traced path that goes ``tolerance x gap``
  objects of a class without meeting a sampled ("landmark") object is
  probably heading out of the sticky set; the trace stops that path and
  switches to the next entry point.  ``gap`` here is the policy's
  *expected* inter-sample spacing (``SamplingPolicy.expected_gap``), so
  the guard calibrates itself to whichever sampling backend selected
  the landmarks.
* **Per-class budgets** — the footprint gives the expected byte
  composition per class; each class stops contributing once its budget
  is met, and resolution ends when every budgeted class is satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sampling import SamplingPolicy
from repro.heap.heap import GlobalObjectSpace


@dataclass
class ResolutionStats:
    """What one resolution pass did."""

    selected: list[int] = field(default_factory=list)
    visited: int = 0
    edges_traced: int = 0
    #: paths abandoned by the landmark guard.
    landmark_stops: int = 0
    #: per-class bytes selected (scaled estimate, comparable to footprint).
    selected_bytes: dict[str, int] = field(default_factory=dict)
    cost_ns: int = 0


def resolve_sticky_set(
    gos: GlobalObjectSpace,
    policy: SamplingPolicy,
    entry_refs: list[int],
    footprint: dict[str, float],
    *,
    tolerance: float = 2.0,
    use_landmarks: bool = True,
    landmark_ids: set[int] | None = None,
    max_visits: int = 1_000_000,
    thread=None,
    costs=None,
) -> ResolutionStats:
    """Trace from ``entry_refs`` until the per-class ``footprint`` byte
    budgets are met; returns the selected object ids and statistics.

    ``tolerance`` is the paper's ``t`` parameter (> 1): a path is
    abandoned after seeing ``t * gap`` objects of some class without one
    being a landmark.  ``landmark_ids``, when given, restricts landmarks
    to sampled objects the footprinting pass actually *tracked* (the
    paper's landmarks are sampled members of the sticky set — an object
    merely tagged sampled by the policy but never accessed by the thread
    lends no evidence the trace is inside the set); without it, the
    policy's sampling tag is used.  When ``thread``/``costs`` are given,
    the trace's CPU cost is charged to the thread (``cpu.resolution_ns``).
    """
    if tolerance <= 1:
        raise ValueError(f"tolerance must be > 1, got {tolerance}")
    stats = ResolutionStats()
    budgets = {c: float(b) for c, b in footprint.items() if b > 0}  # simlint: disable=SIM003 (budget order mirrors the caller's footprint accrual order the walk is calibrated against)
    if not budgets:
        return stats
    selected_set: set[int] = set()
    #: sampled bytes met so far per class (resolution's stop signal is the
    #: reachable *sampled* footprint hitting the estimate).
    met: dict[str, float] = {c: 0.0 for c in budgets}
    visited_global: set[int] = set()

    def is_landmark(obj, sampled: bool) -> bool:
        if not sampled:
            return False
        return landmark_ids is None or obj.obj_id in landmark_ids

    def budget_done() -> bool:
        return all(met[c] >= budgets[c] for c in budgets)

    for root in entry_refs:
        if budget_done() or stats.visited >= max_visits:
            break
        # Depth-first trace from this entry point; per-path per-class
        # "objects since last landmark" counters implement the guard.
        stack: list[int] = [root]
        since_landmark: dict[str, int] = {}
        abandoned = False
        while stack and not abandoned:
            obj_id = stack.pop()
            if obj_id in visited_global:
                continue
            visited_global.add(obj_id)
            stats.visited += 1
            if stats.visited >= max_visits:
                break
            obj = gos.get(obj_id)
            cname = obj.jclass.name
            # The guard's tolerance unit is the *expected* spacing
            # between samples under the active backend: the prime gap
            # for divisibility/hash selection, the inverse inclusion
            # probability for Poisson.
            gap = policy.expected_gap(obj.jclass)
            sampled, _logged, scaled = policy.decision(obj)
            landmark = is_landmark(obj, sampled)

            class_open = cname in budgets and met[cname] < budgets[cname]
            if class_open or obj.refs:
                # Select the object if its class still has budget;
                # structural objects (with outgoing refs) are traversed
                # regardless so interior classes can be reached.
                if class_open and obj_id not in selected_set:
                    selected_set.add(obj_id)
                    stats.selected.append(obj_id)
                    stats.selected_bytes[cname] = (
                        stats.selected_bytes.get(cname, 0) + obj.size_bytes
                    )
                    if landmark:
                        met[cname] += scaled

            # Landmark bookkeeping (applies to every class traced: a long
            # landmark-free stretch of *any* class means the trace has
            # probably left the sticky set).
            if use_landmarks:
                if landmark:
                    since_landmark[cname] = 0
                else:
                    seen = since_landmark.get(cname, 0) + 1
                    since_landmark[cname] = seen
                    if seen > tolerance * gap:
                        stats.landmark_stops += 1
                        abandoned = True
                        break

            if budget_done():
                break
            for ref in reversed(obj.refs):
                stats.edges_traced += 1
                if ref not in visited_global:
                    stack.append(ref)

    if thread is not None and costs is not None:
        ns = stats.edges_traced * costs.resolve_trace_ns + stats.visited * costs.resolve_trace_ns
        stats.cost_ns = ns
        thread.cpu.resolution_ns += ns
        thread.clock.advance(ns)
    return stats
