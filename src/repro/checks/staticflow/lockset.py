"""Static lockset/may-race analysis over the workload CFG.

The claim this module maintains (and the ``static`` check gate proves
against the dynamic detector on every bundled workload): the static
may-race set is a **superset** of every report the interval-grain
happens-before detector (:mod:`repro.checks.racedetect`) can produce on
the same workload.  Like the detector's interval ``touched`` set, a
thread's touches of an object include its writes, so a read-write pair
is any touch against a write.  The argument rests on the only two
exclusions the analysis makes, both of which correspond to *guaranteed*
happens-before edges in the dynamic semantics:

* **Different phases** — a barrier episode joins *all* participants'
  vector clocks (the detector's "barrier release" edge), so any two
  accesses separated by a barrier are HB-ordered in every execution.
* **Common lock** — if both threads' accesses hold a common lock
  (must-hold locksets from the CFG dataflow, so "holds" is certain,
  not "may hold"), mutual exclusion serializes them and the detector's
  release->acquire edge orders the pair in whichever order the lock
  transfers.

Everything else — same phase, different threads, at least one write,
some lockset pair disjoint — is reported as a :class:`MayRace`.  The
analysis is deliberately one-sided: extra HB edges the detector tracks
(diff propagation, coincidental lock chains) only ever *remove* dynamic
reports, never add ones the static set lacks, so static-only entries
(false positives) are expected and reported as such by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MayRace", "may_races", "covers", "uncovered_dynamic"]


@dataclass(frozen=True, slots=True)
class MayRace:
    """One statically-possible race: an unordered conflicting pair."""

    obj_id: int
    class_name: str
    site: str
    #: the two threads, tid_a < tid_b.
    tid_a: int
    tid_b: int
    #: "write-write" | "read-write" (a read-write pair in either
    #: direction collapses to one kind; the dynamic detector's
    #: "write-read"/"read-write" both map onto it).
    kind: str
    #: first phase the pair conflicts in.
    phase: int
    #: why the pair is unordered (locksets at the conflicting accesses).
    evidence: str

    @property
    def key(self) -> tuple:
        """Dedup/coverage key: (obj, unordered pair, kind)."""
        return (self.obj_id, self.tid_a, self.tid_b, self.kind)

    def render(self) -> str:
        """One-line human form."""
        return (
            f"may-race on object {self.obj_id} ({self.class_name}, site {self.site}), "
            f"{self.kind}: threads {self.tid_a} vs {self.tid_b} in phase "
            f"{self.phase} — {self.evidence}"
        )


def _disjoint_pair(locksets_a: set, locksets_b: set) -> tuple | None:
    """A (lockset_a, lockset_b) witness with no common lock, or None."""
    for la in sorted(locksets_a, key=sorted):
        for lb in sorted(locksets_b, key=sorted):
            if not (la & lb):
                return la, lb
    return None


def _fmt_locks(locks: frozenset) -> str:
    return "{" + ", ".join(str(x) for x in sorted(locks)) + "}" if locks else "no locks"


def may_races(ir, cfg) -> list[MayRace]:
    """Compute the static may-race set of a workload.

    Accumulates, per ``(phase, object, thread)``, the set of must-hold
    locksets under which the thread reads/writes the object in that
    phase; then reports every same-phase cross-thread conflicting pair
    with a disjoint lockset witness.  Deduped on (object, pair, kind)
    across phases — one entry per distinct race, like the dynamic
    detector's report dedup.
    """
    # (phase, obj_id) -> tid -> (touch locksets, write locksets)
    acc: dict[tuple[int, int], dict[int, tuple[set, set]]] = {}
    for seg in cfg.segments():
        for obj_id in seg.reads:
            per_tid = acc.setdefault((seg.phase, obj_id), {})
            per_tid.setdefault(seg.thread_id, (set(), set()))[0].add(seg.locks)
        for obj_id in seg.writes:
            per_tid = acc.setdefault((seg.phase, obj_id), {})
            touches, writes = per_tid.setdefault(seg.thread_id, (set(), set()))
            touches.add(seg.locks)
            writes.add(seg.locks)
    found: dict[tuple, MayRace] = {}
    for phase, obj_id in sorted(acc):
        per_tid = acc[(phase, obj_id)]
        tids = sorted(per_tid)
        info = ir.objects.get(obj_id)
        class_name = info.class_name if info is not None else "?"
        site = info.site if info is not None else "?"
        for i, ta in enumerate(tids):
            reads_a, writes_a = per_tid[ta]
            for tb in tids[i + 1 :]:
                reads_b, writes_b = per_tid[tb]
                ww = _disjoint_pair(writes_a, writes_b) if writes_a and writes_b else None
                if ww is not None:
                    key = (obj_id, ta, tb, "write-write")
                    if key not in found:
                        found[key] = MayRace(
                            obj_id=obj_id,
                            class_name=class_name,
                            site=site,
                            tid_a=ta,
                            tid_b=tb,
                            kind="write-write",
                            phase=phase,
                            evidence=(
                                f"both write, t{ta} under {_fmt_locks(ww[0])} vs "
                                f"t{tb} under {_fmt_locks(ww[1])}; no common lock, "
                                "no barrier between"
                            ),
                        )
                rw = None
                if reads_a and writes_b:
                    rw = _disjoint_pair(reads_a, writes_b)
                if rw is None and writes_a and reads_b:
                    rw = _disjoint_pair(writes_a, reads_b)
                if rw is not None:
                    key = (obj_id, ta, tb, "read-write")
                    if key not in found:
                        found[key] = MayRace(
                            obj_id=obj_id,
                            class_name=class_name,
                            site=site,
                            tid_a=ta,
                            tid_b=tb,
                            kind="read-write",
                            phase=phase,
                            evidence=(
                                f"read/write conflict, locksets {_fmt_locks(rw[0])} "
                                f"vs {_fmt_locks(rw[1])} disjoint; no barrier between"
                            ),
                        )
    return [found[k] for k in sorted(found)]


def _dynamic_key(report) -> tuple:
    """Coverage key of one dynamic RaceReport: (obj, pair, kind class)."""
    kind = "write-write" if report.kind == "write-write" else "read-write"
    a, b = sorted((report.first.thread_id, report.second.thread_id))
    return (report.obj_id, a, b, kind)


def covers(static: list[MayRace], report) -> bool:
    """True when the static set contains a dynamic report's race."""
    keys = {r.key for r in static}
    return _dynamic_key(report) in keys


def uncovered_dynamic(static: list[MayRace], reports) -> list:
    """Dynamic reports the static set misses (must be empty: the
    soundness oracle the ``static`` gate and tests assert)."""
    keys = {r.key for r in static}
    return [rep for rep in reports if _dynamic_key(rep) not in keys]
