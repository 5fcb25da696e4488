"""Vectorized access replay vs the scalar oracle.

Replay has two routes: the scalar loop, and the vector engine's one
pass over a run's distinct objects, taken when nothing observes the run
beyond the points the engine stops at (no observer — an
``IntervalHistory`` recorder included — prefetcher, keyword hook,
condition-driven timer or pending migration).
The one pass walks to its *clock stops*: accesses of ids a hook
re-armed, and timer fires.

Randomized access programs (seeded) run twice — ``replay="scalar"`` and
``replay="vector"`` — and every observable must match: protocol
counters, thread clocks, network traffic and ``run_fingerprint``.
Unobserved configurations exercise the one pass: one-shot bodies on a
transient lean lane, repeated bodies on a cached one, faults priced
together.  First-touch hooks ride the same pass and must see the scalar
loop's first-touch stream; re-arming hooks and timers must see the
scalar loop's clock at every stop.  Under every observed configuration
the engine must never be called, so vector replay *is* scalar replay
there; the tests assert that rather than compare the scalar loop with
itself.  The paper workloads (SOR / Barnes-Hut / Water-Spatial) run
through the same comparison, with and without the profilers.
"""

from __future__ import annotations

import gc
import random
import weakref
from collections import Counter

import pytest

from repro.core.access_profiler import AccessProfiler
from repro.core.adaptive import AdaptiveRateController
from repro.core.profiler import ProfilerSuite
from repro.dsm.homemigration import HomeMigrationEngine
from repro.dsm.intervals import IntervalHistory
from repro.dsm.observer import ProtocolObserver
from repro.runtime import program as P
from repro.runtime.djvm import DJVM, run_fingerprint
from repro.runtime.migration import MigrationPlan
from repro.runtime.vector import VectorEngine
from repro.sim.costs import CostModel
from repro.sim.network import MessageKind, Network, RackTopology
from repro.workloads.barnes_hut import BarnesHutWorkload
from repro.workloads.sor import SORWorkload
from repro.workloads.water_spatial import WaterSpatialWorkload

N_NODES = 4
N_THREADS = 4
N_SCALARS = 24
N_ARRAYS = 8
ARR_LEN = 64


def build_djvm(
    history: bool = False, homes: str = "cyclic", **kwargs
) -> tuple[DJVM, list[int]]:
    """A small DJVM with scalar and array objects spread over the nodes,
    ``homes`` ``"cyclic"`` (object i at node i mod n) or ``"block"``
    (contiguous ranges per node); ``history`` attaches an
    :class:`IntervalHistory` (read by :func:`fingerprint`)."""
    djvm = DJVM(N_NODES, **kwargs)
    if history:
        djvm.attach(IntervalHistory())
    scalar_cls = djvm.define_class("Obj", 64)
    array_cls = djvm.define_class("Arr", is_array=True, element_size=8)

    def home(i: int, n: int) -> int:
        return i % N_NODES if homes == "cyclic" else i * N_NODES // n

    obj_ids = [
        djvm.allocate(scalar_cls, home(i, N_SCALARS)).obj_id for i in range(N_SCALARS)
    ]
    obj_ids += [
        djvm.allocate(array_cls, home(i, N_ARRAYS), length=ARR_LEN).obj_id
        for i in range(N_ARRAYS)
    ]
    for t in range(N_THREADS):
        djvm.spawn_thread(t % N_NODES)
    return djvm, obj_ids


def random_burst(rng: random.Random, obj_ids: list[int], n: int) -> list:
    """``n`` access/compute ops, three bursts in four over a working set
    of 2-4 objects."""
    pool = obj_ids
    if rng.random() < 0.75:
        pool = rng.sample(obj_ids, rng.randint(2, 4))
    ops = []
    for _ in range(n):
        oid = rng.choice(pool)
        if rng.random() < 0.35:
            ops.append(P.write(oid, n_elems=rng.randint(1, 4)))
        elif rng.random() < 0.1:
            ops.append(P.compute(rng.randint(1_000, 60_000)))
        else:
            ops.append(
                P.read(oid, n_elems=rng.randint(1, 8), repeat=rng.randint(1, 3))
            )
    return ops


def random_programs(seed: int, obj_ids: list[int]) -> dict[int, list]:
    """Barrier-separated rounds of random access bursts.

    Bursts are long enough (up to 24 consecutive access ops) that most
    cross the vectorizer's minimum-run threshold, with short bursts,
    computes, locks and call/ret mixed in so scalar↔vector transitions
    and mid-segment sync points are exercised too.  Most bursts stay
    inside a small working set: under a profiler hook the engine only
    takes runs that revisit their objects several times."""
    rng = random.Random(seed)
    programs: dict[int, list] = {}
    rounds = 4
    for tid in range(N_THREADS):
        ops: list = [P.call("main", 2)]
        for rnd in range(rounds):
            for _burst in range(rng.randint(2, 4)):
                if rng.random() < 0.2:
                    ops.append(P.compute(rng.randint(1_000, 60_000)))
                if rng.random() < 0.3:
                    ops.append(P.acquire(0))
                    ops.append(P.write(rng.choice(obj_ids)))
                    ops.append(P.release(0))
                ops.extend(random_burst(rng, obj_ids, rng.randint(3, 24)))
            ops.append(P.barrier(rnd))
        ops.append(P.ret())
        programs[tid] = ops
    return programs


def repeating_programs(seed: int, obj_ids: list[int]) -> dict[int, list]:
    """*body x k* programs: each thread owns a few random bodies and
    replays each k in 2..5 times, occurrences separated by a barrier or
    a lock pair (so every occurrence is its own maximal span), with
    one-shot bursts mixed in.  Some occurrences are rebuilt from fresh
    op tuples: interning is by content, not by op identity."""
    rng = random.Random(seed)
    programs: dict[int, list] = {}
    rounds = 5
    for tid in range(N_THREADS):
        bodies = [
            (random_burst(rng, obj_ids, rng.randint(6, 24)), rng.randint(2, 5))
            for _ in range(rng.randint(1, 3))
        ]
        ops: list = [P.call("main", 2)]
        for rnd in range(rounds):
            for body, k in bodies:
                if rnd >= k:
                    continue
                ops.extend(body if rng.random() < 0.5 else [(*op,) for op in body])
                ops.append(P.acquire(0))
                ops.append(P.write(rng.choice(obj_ids)))
                ops.append(P.release(0))
                if rng.random() < 0.4:
                    ops.extend(random_burst(rng, obj_ids, rng.randint(6, 16)))
                    ops.append(P.acquire(1))
                    ops.append(P.release(1))
            ops.append(P.barrier(rnd))
        ops.append(P.ret())
        programs[tid] = ops
    return programs


def fingerprint(djvm: DJVM, res) -> dict:
    recorder = next(
        (o for o in djvm.hlrc.observers if isinstance(o, IntervalHistory)), None
    )
    history = {}
    for tid, intervals in sorted(recorder.by_thread.items() if recorder else ()):
        history[tid] = [
            (
                iv.interval_id,
                iv.start_pc,
                iv.end_pc,
                iv.start_ns,
                iv.end_ns,
                iv.close_reason,
                tuple(
                    (s.obj_id, s.reads, s.writes, s.first_ns, s.last_ns)
                    for s in summaries.values()
                ),
                tuple(sorted(iv.written)),
            )
            for iv, summaries in zip(intervals, recorder.summaries[tid])
        ]
    return {
        "counters": dict(sorted(res.counters.items())),
        "finish_ms": dict(sorted(res.thread_finish_ms.items())),
        "ops": res.ops_executed,
        "messages": res.traffic.messages,
        "by_kind": sorted(
            (str(k), tuple(v)) for k, v in res.traffic._by_kind.items()
        ),
        "history": history,
    }


def compile_hot(programs: dict[int, list]) -> dict:
    """Compile ``programs`` and pre-mark every run hot, so each one
    caches its lane on its first execution the way a body that repeats
    in its program does (these bodies mostly occur once)."""
    progs = {tid: P.compile_program(ops) for tid, ops in programs.items()}
    for cp in progs.values():
        for vr in cp.vector_runs().values():
            vr.hot = True
    return progs


def run_replay(
    seed: int,
    replay: str,
    *,
    observer: str | None = None,
    make_programs=random_programs,
    premark: bool = True,
    **kwargs,
):
    """``premark`` caches every run's lane (``compile_hot``); without it
    the programs compile fresh, as a user's do."""
    djvm, obj_ids = build_djvm(replay=replay, **kwargs)
    extra = []
    if observer == "timer":
        extra = [DeadlineTimer()]
        djvm.add_timer(extra[0])
    elif observer in ("hook", "two_hooks"):
        extra = [FastHook()]
        if observer == "two_hooks":
            extra.append(FastHook(tag=1))
        for hook in extra:
            djvm.add_hook(hook)
    programs = make_programs(seed, obj_ids)
    res = djvm.run(compile_hot(programs) if premark else programs)
    fp = fingerprint(djvm, res)
    fp["run"] = run_fingerprint(djvm, res)
    if extra:
        fp["observer"] = [list(x.events) for x in extra]
    return fp


class DeadlineTimer:
    """Deadline-API timer: fires every 200 simulated microseconds,
    records (thread, clock, pc) at each fire and charges a fixed cost,
    as the stack sampler does — a fire one op early or late shows in the
    record, and its charge moves every later clock."""

    PERIOD_NS = 200_000
    COST_NS = 7_000

    def __init__(self) -> None:
        self._next: dict[int, int] = {}
        self.events: list[tuple[int, int, int]] = []

    def next_fire_ns(self, thread) -> int:
        return self._next.setdefault(thread.thread_id, self.PERIOD_NS)

    def maybe_fire(self, thread) -> None:
        now = thread.clock.now_ns
        nxt = self._next.setdefault(thread.thread_id, self.PERIOD_NS)
        if now < nxt:
            return
        self.events.append((thread.thread_id, now, thread.pc))
        while nxt <= now:
            nxt += self.PERIOD_NS
        self._next[thread.thread_id] = nxt
        thread.cpu.stack_sampling_ns += self.COST_NS
        thread.clock.advance(self.COST_NS)


class ConditionTimer:
    """A condition-driven timer: deadline 0, a call at every op
    boundary, never a fire of its own."""

    def __init__(self) -> None:
        self.calls = 0

    def next_fire_ns(self, thread) -> int:
        return 0

    def maybe_fire(self, thread) -> None:
        self.calls += 1


class FastHook:
    """A first-touch profiler hook (batch-shaped ``fast_on_access``)
    recording each first touch."""

    def __init__(self, events: list | None = None, tag: int = 0) -> None:
        self.events: list[tuple[int, int, int, bool, int]] = [] if events is None else events
        self.tag = tag

    def on_interval_open(self, thread) -> None:
        pass

    def on_interval_close(self, thread, interval, sync_dst) -> None:
        pass

    def on_access(self, thread, obj, **kw) -> None:  # pragma: no cover
        ids = [obj.obj_id]
        self.fast_on_access(thread, ids, ids if kw.get("real_fault") else ())

    def fast_on_access(self, thread, ids, faulted) -> None:
        for oid in ids:
            self.events.append(
                (thread.thread_id, thread.interval_counter, oid, oid in faulted, self.tag)
            )


class ChargingHook(FastHook):
    """A first-touch hook that charges the clock per id — more for an id
    that did not fault — and returns the charges, as the correlation
    profiler does: each charge must land at its id's first-touch op."""

    CHARGE_NS = 3_000

    def fast_on_access(self, thread, ids, faulted):
        super().fast_on_access(thread, ids, faulted)
        charges = [self.CHARGE_NS * (1 + (oid not in faulted)) for oid in ids]
        thread.cpu.oal_logging_ns += sum(charges)
        thread.clock._now_ns += sum(charges)
        return charges


class RearmingHook(FastHook):
    """Re-arms the even ids it is shown, as the footprinter re-arms the
    ids it samples; its tracking entry records every access of a
    re-armed id with the clock it sees and charges a fixed cost — a stop
    at the wrong clock shows in the record and moves every later one."""

    TRACK_NS = 2_000

    def __init__(self, events: list | None = None, tag: int = 0) -> None:
        super().__init__(events, tag)
        #: (thread, object, clock) per tracking call.
        self.tracked: list[tuple[int, int, int]] = []
        self._tracking = (self.on_rearmed_access,)

    def fast_on_access(self, thread, ids, faulted) -> None:
        super().fast_on_access(thread, ids, faulted)
        thread.current_interval.rearm([oid for oid in ids if oid % 2 == 0], self._tracking)

    def on_rearmed_access(self, thread, obj_id) -> None:
        self.tracked.append((thread.thread_id, obj_id, thread.clock.now_ns))
        thread.cpu.footprinting_ns += self.TRACK_NS
        thread.clock._now_ns += self.TRACK_NS


class KeywordHook:
    """Only the keyword ``on_access``: every hook falls back to the
    keyword fan-out on every op."""

    def on_interval_open(self, thread) -> None:
        pass

    def on_interval_close(self, thread, interval, sync_dst) -> None:
        pass

    def on_access(self, thread, obj, **kw) -> None:
        pass


SEEDS = [0, 1, 2, 3, 4]


@pytest.fixture
def execute_calls(monkeypatch):
    """The run of every ``VectorEngine.execute`` call of the test, in
    call order, recorded by a class-level wrapper (the way
    ``benchmarks/e2e/tracer.py`` counts them)."""
    calls: list = []
    original = VectorEngine.execute

    def recording(self, thread, run, *args):
        calls.append(run)
        return original(self, thread, run, *args)

    monkeypatch.setattr(VectorEngine, "execute", recording)
    return calls


def observed_matches_scalar(seed, execute_calls, **kwargs) -> dict:
    """Vector replay under an observed configuration never calls the
    engine and leaves the scalar oracle's result."""
    vector = run_replay(seed, "vector", **kwargs)
    assert execute_calls == []
    assert vector == run_replay(seed, "scalar", **kwargs)
    return vector


@pytest.mark.parametrize("seed", SEEDS)
def test_vector_matches_scalar_bare(seed, execute_calls):
    """No observers, every run pre-marked hot: the one pass on cached
    lanes."""
    assert run_replay(seed, "vector") == run_replay(seed, "scalar")
    assert execute_calls


@pytest.mark.parametrize("seed", SEEDS)
def test_vector_matches_scalar_with_history(seed, execute_calls):
    """Interval history kept: per-object summaries need the scalar loop."""
    observed_matches_scalar(seed, execute_calls, history=True)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_vector_matches_scalar_with_timer(seed, execute_calls):
    """Deadline-API timer: the one pass walks to each fire point and
    fires there, at the scalar loop's clock and pc."""
    vector = run_replay(seed, "vector", observer="timer")
    assert execute_calls
    assert vector == run_replay(seed, "scalar", observer="timer")
    assert vector["observer"][0]


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_vector_matches_scalar_with_fast_hook(seed, execute_calls):
    """A first-touch hook rides the one pass and sees the scalar loop's
    first-touch stream."""
    vector = run_replay(seed, "vector", observer="hook")
    assert execute_calls
    assert vector == run_replay(seed, "scalar", observer="hook")


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_vector_matches_scalar_with_two_fast_hooks(seed, execute_calls):
    """Two first-touch hooks on the one pass: each is called once per
    run with the run's first touches, in registration order, and each
    sees the scalar loop's first-touch stream."""
    vector = run_replay(seed, "vector", observer="two_hooks")
    assert execute_calls
    assert vector == run_replay(seed, "scalar", observer="two_hooks")
    first, second = vector["observer"]
    assert first and [e[:-1] for e in first] == [e[:-1] for e in second]


def split_runs(cp: P.CompiledProgram) -> tuple[list, list]:
    """(singleton runs, shared runs) of a compiled program."""
    occurrences = Counter(map(id, cp.vector_runs().values()))
    runs = {id(vr): vr for vr in cp.vector_runs().values()}.values()
    singles = [vr for vr in runs if occurrences[id(vr)] == 1]
    shared = [vr for vr in runs if occurrences[id(vr)] > 1]
    return singles, shared


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_hot_runs_materialize_lanes_lazily(seed):
    """A repeated body — born hot — caches its lane on its first
    execution, and a second DJVM reusing the compiled form (as the
    ledger does) with an equal cost model reads the same lane; a
    singleton body never caches one."""
    fps = []
    progs = None
    lanes = None
    for _ in range(2):
        djvm, obj_ids = build_djvm(replay="vector")
        if progs is None:
            progs = {
                tid: P.compile_program(ops)
                for tid, ops in repeating_programs(seed, obj_ids).items()
            }
            splits = [split_runs(cp) for cp in progs.values()]
            singles = [vr for s, _ in splits for vr in s]
            shared = [vr for _, sh in splits for vr in sh]
            assert singles and shared
            assert all(vr.hot for vr in shared) and not any(vr.hot for vr in singles)
            assert all(vr._lane is None for vr in singles + shared)
        res = djvm.run(progs)
        fps.append(run_fingerprint(djvm, res))
        assert all(vr._lane is not None for vr in shared)
        assert all(vr._lane is None for vr in singles)
        if lanes is None:
            lanes = [vr._lane for vr in shared]
        assert all(vr._lane is lane for vr, lane in zip(shared, lanes))
    djvm, obj_ids = build_djvm(replay="scalar")
    res = djvm.run(repeating_programs(seed, obj_ids))
    assert fps[0] == fps[1] == run_fingerprint(djvm, res)


REPEAT_CONFIGS = {
    "bare": {},
    "history": {"history": True},
    "timer": {"observer": "timer", "history": True},
    "hook": {"observer": "hook", "history": True},
}


@pytest.mark.parametrize("config", sorted(REPEAT_CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_repeated_bodies_replay_in_bulk_and_match_scalar(seed, config, execute_calls):
    """Fresh *body x k* programs, no pre-marking: unobserved, every run
    goes through the engine; observed, none does.  Either way the
    result is the scalar oracle's."""
    kwargs = dict(
        REPEAT_CONFIGS[config], make_programs=repeating_programs, premark=False
    )
    if config == "bare":
        assert run_replay(seed, "vector", **kwargs) == run_replay(seed, "scalar", **kwargs)
        assert execute_calls
    else:
        observed_matches_scalar(seed, execute_calls, **kwargs)


def test_fresh_sor_program_engages_engine_in_one_run(execute_calls):
    """A user's run — fresh programs, one ``DJVM.run`` — must replay the
    repeating sweeps in bulk; a silent return to zero engagement (runs
    keyed by position again) fails here."""
    rounds = 4
    djvm = DJVM(N_NODES)
    workload = SORWorkload(n=128, rounds=rounds, n_threads=N_THREADS, seed=3)
    workload.build(djvm)
    djvm.run(workload.programs())
    assert len(execute_calls) >= N_THREADS * 2 * (rounds - 1)


def test_rearmed_objects_stop_the_one_pass_at_their_exact_clock(execute_calls):
    """The footprinter re-arms the tags of the objects it sampled every
    tracking phase, so each of their accesses re-enters it.  A born-hot
    body re-reading two objects across 1 ms phases walks: each access is
    a stop at the scalar loop's clock, and every re-trap (and its
    simulated cost) lands as on the scalar loop."""
    outcomes = {}
    for replay in ("vector", "scalar"):
        djvm, obj_ids = build_djvm(replay=replay)
        suite = ProfilerSuite(djvm, correlation=False, footprint=True)
        suite.set_full_sampling()
        a, b = obj_ids[:2]
        body = [P.read(a), P.compute(2_000_000), P.read(b), P.compute(2_000_000)] * 3
        main = P.compile_program(
            [P.call("main", 2), *body, P.barrier(0), *body, P.barrier(1), P.ret()]
        )
        (run,) = set(main.vector_runs().values())
        assert run.hot  # born hot: only the gate stands between it and the engine
        idle = [P.barrier(0), P.barrier(1)]
        programs = {0: main, **{tid: list(idle) for tid in range(1, N_THREADS)}}
        result = djvm.run(programs)
        fp = suite.footprinter
        outcomes[replay] = (
            run_fingerprint(djvm, result, suite),
            fp.tracked_accesses,
            fp.interval_footprints,
            djvm.replay_routing.get("stops"),
        )
    assert outcomes["vector"][:3] == outcomes["scalar"][:3]
    assert outcomes["vector"][1] == 12  # 2 objects x 3 phases x 2 intervals
    assert outcomes["vector"][3] == 12  # every access of the two is a stop
    assert djvm.hlrc.dispatch_plan == (("StickySetFootprinter", "rearming"),)
    assert len(execute_calls) == 2


WORKLOADS = {
    "sor": lambda: SORWorkload(n=128, rounds=2, n_threads=N_NODES, seed=3),
    "barnes_hut": lambda: BarnesHutWorkload(
        n_bodies=96, rounds=2, n_threads=N_NODES, seed=3
    ),
    "water_spatial": lambda: WaterSpatialWorkload(
        n_molecules=64, rounds=2, n_threads=N_NODES, seed=3
    ),
}


def run_workload(name: str, replay: str) -> tuple[dict, dict]:
    djvm = DJVM(N_NODES, replay=replay)
    workload = WORKLOADS[name]()
    workload.build(djvm)
    return run_fingerprint(djvm, djvm.run(workload.programs())), djvm.replay_routing


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_vector_replay_matches_scalar_on_workloads(name):
    """The paper workloads, not just random programs, on the one pass:
    byte-identical to the scalar loop."""
    vector, routing = run_workload(name, "vector")
    assert vector == run_workload(name, "scalar")[0]
    assert routing["bulk"] + routing["lean"] > 0


# -- unobserved runs: faults priced in one pass --------------------------
#
# With no hook, observer, timer, prefetcher or pending migration, the
# engine replays every run — one-shot bodies included, on a transient
# lean lane — and charges its faults in one HomeBasedLRC.charge_faults.
# The configurations below are that gate; the disqualifiers after them
# each leave it.  (First-touch hooks keep it open; their section follows.)

UNOBSERVED_CONFIGS = {
    "flat": {},
    "fast_test_costs": {"costs": CostModel.fast_test()},
    "rack": {"topology": True},
}


def run_unobserved(seed, replay, *, make_programs, topology=False, **kwargs):
    """(fingerprint, run_fingerprint, routing, one-shot runs) of a fresh
    compile — nothing pre-marked — with nothing observing the run."""
    if topology:
        kwargs["network"] = Network(topology=RackTopology(2, intra_ns=30_000, cross_ns=150_000))
    djvm, obj_ids = build_djvm(replay=replay, **kwargs)
    progs = {
        tid: P.compile_program(ops) for tid, ops in make_programs(seed, obj_ids).items()
    }
    singles = [vr for cp in progs.values() for vr in split_runs(cp)[0]]
    res = djvm.run(progs)
    return fingerprint(djvm, res), run_fingerprint(djvm, res), djvm.replay_routing, singles


@pytest.mark.parametrize("config", sorted(UNOBSERVED_CONFIGS))
@pytest.mark.parametrize("make_programs", [random_programs, repeating_programs])
@pytest.mark.parametrize("seed", SEEDS)
def test_unobserved_runs_batch_faults_and_match_scalar(seed, make_programs, config):
    """One-shot bodies go lean, repeated ones bulk; refaults after
    barrier/lock invalidation, lazy home copies and twins on written
    cache copies all land as the scalar loop leaves them."""
    kwargs = dict(UNOBSERVED_CONFIGS[config], make_programs=make_programs)
    fp, rfp, routing, singles = run_unobserved(seed, "vector", **kwargs)
    sfp, srfp, _, _ = run_unobserved(seed, "scalar", **kwargs)
    assert fp == sfp
    assert rfp == srfp
    assert routing["faults_batched"] > 0
    assert routing["lean"] > 0
    if make_programs is repeating_programs:
        assert routing["bulk"] > 0
    # The lean lane is transient: a one-shot body caches nothing.
    assert singles and not any(vr.hot or vr._lane is not None for vr in singles)


def test_unobserved_run_refaults_invalidated_copies_and_twins():
    """Thread 0 re-reads and writes objects homed at node 1 that thread 1
    rewrites every round: each occurrence refaults every copy the
    barrier invalidated and re-creates every twin, in one pass."""
    fps = {}
    for replay in ("vector", "scalar"):
        djvm, obj_ids = build_djvm(replay=replay)
        remote = [oid for oid in obj_ids if djvm.gos.get(oid).home_node == 1][:6]
        body = [P.read(oid, n_elems=2) for oid in remote] + [P.write(remote[0]), P.write(remote[-1], 3)]
        rounds = 4
        main = [P.call("main", 2)]
        writer = [P.call("main", 2)]
        for rnd in range(rounds):
            main += [*body, P.barrier(rnd)]
            writer += [*(P.write(oid) for oid in remote[1:-1]), P.barrier(rnd)]
        idle = [P.barrier(rnd) for rnd in range(rounds)]
        programs = {0: main + [P.ret()], 1: writer + [P.ret()], 2: idle, 3: list(idle)}
        res = djvm.run(programs)
        fps[replay] = (fingerprint(djvm, res), run_fingerprint(djvm, res), djvm.replay_routing)
    assert fps["vector"][:2] == fps["scalar"][:2]
    counters = fps["vector"][0]["counters"]
    assert counters["invalidations"] > 0
    assert fps["vector"][2]["faults_batched"] == counters["faults"] >= 6 + 3 * 4


def test_unobserved_majority_faulting_run_is_never_demoted(execute_calls):
    """Every occurrence of the body faults all of its objects (the writer
    invalidates them each round); its faults are batched and every
    occurrence still replays through the engine."""
    rounds = 5

    def run(replay):
        djvm, obj_ids = build_djvm(replay=replay)
        remote = [oid for oid in obj_ids if djvm.gos.get(oid).home_node == 1][:8]
        body = [P.read(oid, repeat=2) for oid in remote]
        main = [P.call("main", 2)]
        writer = [P.call("main", 2)]
        for rnd in range(rounds):
            main += [*body, P.barrier(rnd)]
            writer += [*(P.write(oid) for oid in remote), P.barrier(rnd)]
        idle = [P.barrier(rnd) for rnd in range(rounds)]
        programs = {0: main + [P.ret()], 1: writer + [P.ret()], 2: idle, 3: list(idle)}
        res = djvm.run(programs)
        return fingerprint(djvm, res), djvm.replay_routing

    fp, routing = run("vector")
    assert fp == run("scalar")[0]
    # Both bodies (reader and writer) replay on their cached lane every round.
    assert routing["bulk"] == 2 * rounds and routing["lean"] == 0
    assert sum(run_.ops[0][0] == P.OP_READ for run_ in execute_calls) == rounds
    assert routing["faults_batched"] == fp["counters"]["faults"] == 8 * rounds


class NullObserver(ProtocolObserver):
    """Watches nothing; its presence alone disqualifies the gate."""

    __slots__ = ()


class EmptyPrefetcher:
    """A prefetcher that never bundles anything."""

    def bundle_for(self, thread, obj):
        return []


def _plan_forever(djvm):
    for thread in djvm.threads:
        djvm.migration.schedule(MigrationPlan(thread.thread_id, 1, at_interval=10**9))


def _two_hooks(djvm):
    # A first-touch hook beside a re-arming one: both ride the walk.
    djvm.add_hook(FastHook())
    djvm.add_hook(RearmingHook(tag=1))


#: each disqualifier alone: setup(djvm) before the run.
#: ``timer`` (a positive deadline) and ``two_hooks`` (a re-arming hook)
#: disqualified the one pass before it learnt to walk to clock stops;
#: they are kept beside the rest to show that they no longer do.
DISQUALIFIERS = {
    "hook": lambda djvm: djvm.add_hook(KeywordHook()),
    "two_hooks": _two_hooks,
    "observer": lambda djvm: djvm.attach(NullObserver()),
    "history": lambda djvm: djvm.attach(IntervalHistory()),
    "timer": lambda djvm: djvm.add_timer(DeadlineTimer()),
    "condition_timer": lambda djvm: djvm.add_timer(ConditionTimer()),
    "prefetcher": lambda djvm: setattr(djvm.hlrc, "prefetcher", EmptyPrefetcher()),
    "pending_migration": _plan_forever,
}

#: the entries above that now walk.
WALKED = {"timer", "two_hooks"}


@pytest.mark.parametrize("name", sorted(DISQUALIFIERS))
def test_each_disqualifier_keeps_per_message_faults(name, monkeypatch, execute_calls):
    """Anything that could see a fault's messages or instants keeps the
    scalar loop: the engine is never called, every fault costs two
    ``Network.send`` calls, and the result is the scalar oracle's —
    on one-shot and on repeated bodies.  A condition-driven timer
    (deadline 0) is one of them.  The ``WALKED`` entries instead walk:
    the engine is called, faults are batched, and the result is still
    the scalar oracle's."""
    sends = Counter()
    original = Network.send

    def counting(self, kind, *args, **kwargs):
        sends[kind] += 1
        return original(self, kind, *args, **kwargs)

    monkeypatch.setattr(Network, "send", counting)
    walked = name in WALKED
    for make_programs in (random_programs, repeating_programs):
        outcomes = {}
        for replay in ("vector", "scalar"):
            djvm, obj_ids = build_djvm(replay=replay)
            DISQUALIFIERS[name](djvm)
            sends.clear()
            res = djvm.run(make_programs(3, obj_ids))
            faults = res.counters["faults"]
            assert faults > 0
            if walked and replay == "vector":
                assert sends[MessageKind.OBJECT_FETCH_REQ] < faults
                assert djvm.replay_routing["faults_batched"] > 0
            else:
                assert sends[MessageKind.OBJECT_FETCH_REQ] == sends[MessageKind.OBJECT_FETCH_DATA] == faults
            outcomes[replay] = (fingerprint(djvm, res), run_fingerprint(djvm, res))
        assert outcomes["vector"] == outcomes["scalar"]
    assert bool(execute_calls) == walked


# -- clock stops: the one pass walks to re-armed accesses and timer fires --
#
# A re-arming hook's tracking entry and a timer both read the clock
# mid-run.  The engine gives each stop the scalar loop's clock: the
# run's static cost through the op, plus every fault, twin and
# first-touch charge at or before it, plus what earlier stops charged.
# The recorders below log clocks (and the timer its pc), and charge
# fixed costs, so a stop taken at the wrong op or with a charge in the
# wrong place shows.

WALK_CONFIGS = {
    "timer": ("timer",),
    "timer_charging": ("charging", "timer"),
    "rearming_charging": ("charging", "rearming"),
    "rearming_first": ("rearming", "charging"),
    "all": ("charging", "rearming", "timer"),
    "two_rearming": ("rearming", "charging", "rearming"),
    "all_scaled_compute": ("charging", "rearming", "timer"),
}


def run_walked(seed, replay, *, config, make_programs):
    """Everything a walked configuration leaves behind: the test and run
    fingerprints, every recorder's events, the kernel's ``TIMER_FIRE``
    trace, and the routing."""
    kwargs = {"costs": CostModel.fast_test()} if config == "all_scaled_compute" else {}
    djvm, obj_ids = build_djvm(replay=replay, keep_event_trace=True, **kwargs)
    recorders = []
    for tag, part in enumerate(WALK_CONFIGS[config]):
        if part == "timer":
            recorder = DeadlineTimer()
            djvm.add_timer(recorder)
        else:
            recorder = (ChargingHook if part == "charging" else RearmingHook)(tag=tag)
            djvm.add_hook(recorder)
        recorders.append(recorder)
    res = djvm.run(make_programs(seed, obj_ids))
    fires = [e for e in djvm.event_trace if e[1] == "TIMER_FIRE"]
    left_behind = (
        fingerprint(djvm, res),
        run_fingerprint(djvm, res),
        [r.events for r in recorders],
        [r.tracked for r in recorders if isinstance(r, RearmingHook)],
        fires,
    )
    return left_behind, djvm.replay_routing


@pytest.mark.parametrize("config", sorted(WALK_CONFIGS))
@pytest.mark.parametrize("make_programs", [random_programs, repeating_programs])
@pytest.mark.parametrize("seed", SEEDS)
def test_clock_stops_match_scalar(seed, make_programs, config, execute_calls):
    """Timers fire at the scalar loop's op, clock and pc; tracking
    entries see its clock at every re-armed access, the arming first
    touch included, after the first-touch charges of that access —
    whichever hook was registered first."""
    kwargs = dict(config=config, make_programs=make_programs)
    vector, routing = run_walked(seed, "vector", **kwargs)
    scalar, _ = run_walked(seed, "scalar", **kwargs)
    assert vector == scalar
    assert execute_calls
    parts = WALK_CONFIGS[config]
    assert (routing["stops"] > 0) == ("rearming" in parts)
    if "timer" in parts:
        assert routing["timer_fires"] > 0
        assert vector[4]


# -- first-touch hooks ride the one pass ---------------------------------
#
# First-touch hooks keep the gate open.  The engine books each run's
# new-in-interval objects in the interval's columns and hands them to
# each hook in one call, hooks in registration order.  Each hook's
# first-touch stream — (thread, interval, object, real fault) — must be
# the scalar loop's, call for call.

HOOK_CONFIGS = {
    "flat": dict,
    "rack": lambda: {
        "network": Network(topology=RackTopology(2, intra_ns=30_000, cross_ns=150_000))
    },
    "scaled_compute": lambda: {"costs": CostModel.fast_test()},
}


def revisiting_programs(seed: int, obj_ids: list[int]) -> dict[int, list]:
    """Per barrier round: a vector run over three objects, then spans
    shorter than ``MIN_VECTOR_RUN`` (cut by CALL/RET) that re-touch one
    of them and touch a new one, then a second vector run over both
    sets.  The short spans run on the scalar loop inside the interval
    the first run touched: its objects are no first touches there, and
    the second run may hand over only the objects still new."""
    rng = random.Random(seed)
    programs: dict[int, list] = {}
    for tid in range(N_THREADS):
        ops: list = [P.call("main", 2)]
        for rnd in range(3):
            pool = rng.sample(obj_ids, 6)
            first, rest = pool[:3], pool[3:]
            reads = [P.read(oid) for oid in first]
            ops += [*reads, P.write(rng.choice(first)), *reads]
            ops += [P.call("f", 1), P.read(first[1]), P.write(rest[0]), P.ret()]
            ops += [P.call("g", 1), P.read(rng.choice(rest)), P.ret()]
            ops += [P.read(oid, repeat=2) for oid in (first[2], *rest)] * 2
            ops.append(P.barrier(rnd))
        ops.append(P.ret())
        programs[tid] = ops
    return programs


def run_first_touch_hooks(seed, replay, *, n_hooks, make_programs, config):
    """(run_fingerprint, each hook's events, routing) under ``n_hooks``
    first-touch hooks."""
    djvm, obj_ids = build_djvm(replay=replay, **HOOK_CONFIGS[config]())
    hooks = [FastHook(tag=tag) for tag in range(n_hooks)]
    for hook in hooks:
        djvm.add_hook(hook)
    res = djvm.run(make_programs(seed, obj_ids))
    return run_fingerprint(djvm, res), [h.events for h in hooks], djvm.replay_routing


@pytest.mark.parametrize("config", sorted(HOOK_CONFIGS))
@pytest.mark.parametrize(
    "make_programs", [random_programs, repeating_programs, revisiting_programs]
)
@pytest.mark.parametrize("n_hooks", [1, 2], ids=["hook", "two_hooks"])
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_first_touch_hooks_ride_the_one_pass_and_match_scalar(
    seed, n_hooks, make_programs, config, execute_calls
):
    kwargs = dict(n_hooks=n_hooks, make_programs=make_programs, config=config)
    fp, events, routing = run_first_touch_hooks(seed, "vector", **kwargs)
    assert execute_calls
    assert (fp, events) == run_first_touch_hooks(seed, "scalar", **kwargs)[:2]
    # Part of each stream came through the engine.
    assert all(0 < routing["first_touches"] <= len(e) for e in events)


def test_first_touch_hooks_after_a_mid_interval_migration(execute_calls):
    """A migration fired mid-interval moves thread 0 to a node without
    its copies, so the vector run after it refaults objects the interval
    already touched.  Those are no first touches: neither hook sees
    them, and the correlation profiler prices only the new objects'
    faults as faults — as the scalar loop does."""
    outcomes = {}
    for replay in ("vector", "scalar"):
        djvm, obj_ids = build_djvm(replay=replay)
        suite = ProfilerSuite(djvm, correlation=True)
        suite.set_full_sampling()
        hook = FastHook()
        djvm.add_hook(hook)
        remote = [oid for oid in obj_ids if djvm.gos.get(oid).home_node == 2][:6]
        before, new = remote[:3], remote[3:]
        body = [P.read(oid) for oid in before] * 2
        main = [P.call("main", 2), *body, P.call("f", 1), P.ret()]
        after_pc = len(main)
        main += [*(P.read(oid) for oid in before + new)] * 2 + [P.barrier(0), P.ret()]
        djvm.migration.schedule(MigrationPlan(0, 1, at_pc=after_pc))
        idle = [P.barrier(0)]
        res = djvm.run({0: main, **{tid: list(idle) for tid in range(1, N_THREADS)}})
        outcomes[replay] = (
            run_fingerprint(djvm, res, suite),
            hook.events,
            suite.access_profiler.total_logged,
            djvm.replay_routing,
        )
    vector, scalar = outcomes["vector"], outcomes["scalar"]
    assert vector[:3] == scalar[:3]
    assert [run.n_ops for run in execute_calls] == [len(remote) * 2]
    assert vector[3]["first_touches"] == len(new)
    assert vector[3]["faults_batched"] == len(remote)  # `before` refaulted
    assert [e[2] for e in vector[1]] == before + new


class CloseRecorder(FastHook):
    """A first-touch hook recording, at every interval close, the
    record's touched and written sets."""

    def on_interval_close(self, thread, interval, sync_dst) -> None:
        self.events.append(
            (
                thread.thread_id,
                interval.interval_id,
                sorted(interval.touched),
                sorted(interval.written),
            )
        )

    def fast_on_access(self, thread, ids, faulted) -> None:
        pass


@pytest.mark.parametrize(
    "make_programs", [random_programs, repeating_programs, revisiting_programs]
)
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_a_hook_reads_the_same_interval_record_on_both_routes(
    seed, make_programs, execute_calls
):
    """A hook may read every field of the record it is handed at close:
    the touched and written sets the one pass leaves are the scalar
    loop's."""
    closes = {}
    for replay in ("vector", "scalar"):
        djvm, obj_ids = build_djvm(replay=replay)
        hook = CloseRecorder()
        djvm.add_hook(hook)
        djvm.run(make_programs(seed, obj_ids))
        closes[replay] = hook.events
        if replay == "vector":
            assert djvm.replay_routing["first_touches"] > 0
    assert execute_calls
    assert closes["vector"] == closes["scalar"]
    assert any(written for *_, written in closes["vector"])


#: the adaptive case's ladder: rate 4 (sampled: the profiler's decision
#: path), then full sampling (its column path) after the first window,
#: then back to rate 4 when the two windows agree.
ADAPTIVE_LADDER = (4, "full")


def run_profiled(name: str, replay: str, rate, backend: str) -> tuple[tuple, dict, tuple]:
    """Everything a correlation-profiled workload leaves behind that
    sampling could move, the run's routing, and (``rate="adaptive"``:
    an :class:`AdaptiveRateController` drives every class) the rates it
    searched, the rate it settled on and the number of windows."""
    djvm = DJVM(N_NODES, replay=replay)
    workload = WORKLOADS[name]()
    workload.build(djvm)
    adaptive = rate == "adaptive"
    suite = ProfilerSuite(
        djvm,
        correlation=True,
        sampling_backend=backend,
        window_batches=N_THREADS if adaptive else None,
    )
    controller = None
    if adaptive:
        suite.set_rate_all(ADAPTIVE_LADDER[0])
        controller = AdaptiveRateController(threshold=1e9, ladder=ADAPTIVE_LADDER)
        suite.attach_controller(controller)
    else:
        suite.set_rate_all(rate)
    res = djvm.run(workload.programs())
    left_behind = (
        run_fingerprint(djvm, res, suite),
        suite.access_profiler.total_logged,
        suite.policy.rate_changes,
        suite.policy.backend.snapshot(),
    )
    control = ()
    if controller is not None:
        searched = [d.rate for d in controller.decisions]
        control = (searched, controller.rate, len(suite.collector.window_tcms))
    return left_behind, djvm.replay_routing, control


@pytest.mark.parametrize("backend", ["prime_gap", "hash", "poisson", "hybrid"])
@pytest.mark.parametrize("rate", [4, "full", "adaptive"])
@pytest.mark.parametrize("name", ["barnes_hut", "sor"])
def test_sampled_profiling_on_the_one_pass_matches_scalar(name, rate, backend):
    """The correlation profiler on the one pass against the scalar loop:
    the TCM, the logging charge in every thread's CPU buckets, the
    logged count, the policy's rate changes and the backend's per-class
    sample / skip counts are equal.  The prime-gap memo is filled in
    decision order, so this also pins the one pass's first-touch order.
    Under the adaptive controller the classes leave the column path and
    return to it mid-run."""
    vector, routing, control = run_profiled(name, "vector", rate, backend)
    scalar, _, scalar_control = run_profiled(name, "scalar", rate, backend)
    assert vector == scalar
    assert control == scalar_control
    assert routing["first_touches"] > 0
    assert vector[0]["tcm_sha256"] is not None and vector[1] > 0
    if rate == "adaptive":
        # Sampled, full, then sampled again for at least one more window.
        searched, settled, n_windows = control
        assert searched == list(ADAPTIVE_LADDER) and settled == 4 and n_windows > 2


def run_adaptive_suite(name, replay, *, timer_ms, backend, footprinter_first=False):
    """A workload under every profiler — correlation, stack sampling and
    footprinting — with the adaptive controller moving every class's
    rate several times mid-run: everything the run, the policy, the
    footprinter and the stack sampler leave behind, and the routing.
    ``footprinter_first`` registers the footprinter before the
    correlation profiler (a ``ProfilerSuite`` registers it after)."""
    djvm = DJVM(N_NODES, replay=replay)
    workload = WORKLOADS[name]()
    workload.build(djvm)
    suite = ProfilerSuite(
        djvm,
        correlation=not footprinter_first,
        stack=True,
        footprint=True,
        window_batches=N_THREADS,
        stack_gap_ms=0.5,
        footprint_timer_ms=timer_ms,
        sampling_backend=backend,
    )
    if footprinter_first:
        profiler = AccessProfiler(suite.policy, djvm.cluster, djvm.gos, collector=suite.collector)
        profiler.observers = djvm.hlrc.observers
        djvm.add_hook(profiler)
        suite.access_profiler = profiler
    suite.set_rate_all(1)
    suite.attach_controller(AdaptiveRateController(threshold=0.0, ladder=(1, 2, 4, 8, 16, 32)))
    res = djvm.run(workload.programs())
    footprinter, sampler = suite.footprinter, suite.stack_sampler
    left_behind = (
        run_fingerprint(djvm, res, suite),
        suite.policy.rate_changes,
        footprinter.tracked_accesses,
        footprinter.interval_footprints,
        sampler.samples_taken,
        [sampler.invariant_refs(thread) for thread in djvm.threads],
    )
    return left_behind, djvm.replay_routing, djvm.hlrc.dispatch_plan


@pytest.mark.parametrize("backend", ["prime_gap", "hash"])
@pytest.mark.parametrize("timer_ms", [None, 0.5], ids=["nonstop", "timer"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_full_adaptive_suite_walks_and_matches_scalar(name, timer_ms, backend):
    """All three profilers on the one pass against the scalar loop, with
    nonstop and timer-phased (duty 0.5) footprinting: re-armed accesses
    and stack-sampler fires are clock stops, the correlation profiler's
    charges land at their first touches, and rates move between
    intervals, never inside one."""
    config = dict(timer_ms=timer_ms, backend=backend)
    vector, routing, plan = run_adaptive_suite(name, "vector", **config)
    scalar, _, _ = run_adaptive_suite(name, "scalar", **config)
    assert vector == scalar
    assert plan == (("AccessProfiler", "first_touch"), ("StickySetFootprinter", "rearming"))
    assert routing["stops"] > 0 and routing["timer_fires"] > 0
    assert routing["first_touches"] > 0
    rate_changes, tracked, _, samples = vector[1:5]
    assert rate_changes > 0 and tracked > 0 and samples > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_footprinter_registered_before_the_profiler_matches_scalar(name):
    """At a first touch every first-touch entry runs before any tracking
    entry, on both routes, whichever hook was registered first."""
    config = dict(timer_ms=None, backend="prime_gap", footprinter_first=True)
    vector, routing, plan = run_adaptive_suite(name, "vector", **config)
    assert vector == run_adaptive_suite(name, "scalar", **config)[0]
    assert plan == (("StickySetFootprinter", "rearming"), ("AccessProfiler", "first_touch"))
    assert routing["stops"] > 0


_SYNC_OPS = (P.OP_ACQUIRE, P.OP_RELEASE, P.OP_BARRIER)


def first_interval_programs(seed: int, obj_ids: list[int]) -> dict[int, list]:
    """Each thread's :func:`random_programs` ops up to its first
    synchronization: the run is every thread's first interval."""
    programs = {}
    for tid, ops in random_programs(seed, obj_ids).items():
        cut = next(i for i, op in enumerate(ops) if op[0] in _SYNC_OPS)
        programs[tid] = [*ops[:cut], P.ret()]
    return programs


@pytest.mark.parametrize("config", ["flat", "rack"])
@pytest.mark.parametrize("replay", ["vector", "scalar"])
@pytest.mark.parametrize("seed", SEEDS)
def test_first_interval_oal_logging_price(seed, replay, config):
    """The logging charge of a first interval at full sampling, priced
    from the op list, the object homes and ``CostModel`` constants
    alone.  Caches are cold (one thread per node), so every remote-homed
    object the thread touches faults and pays only the log; a home
    object traps into the GOS routine first."""
    djvm, obj_ids = build_djvm(replay=replay, **HOOK_CONFIGS[config]())
    suite = ProfilerSuite(djvm, correlation=True)
    suite.set_full_sampling()
    programs = first_interval_programs(seed, obj_ids)
    res = djvm.run(programs)
    costs = djvm.costs
    for thread in djvm.threads:
        ops = programs[thread.thread_id]
        touched = {op[1] for op in ops if op[0] in (P.OP_READ, P.OP_WRITE)}
        n_home = sum(djvm.gos.get(oid).home_node == thread.node_id for oid in touched)
        n_remote = len(touched) - n_home
        expected = n_home * (costs.gos_trap_ns + costs.oal_log_ns) + n_remote * costs.oal_log_ns
        assert thread.cpu.oal_logging_ns == expected
    assert res.counters["faults"] > 0
    if replay == "vector":
        assert djvm.replay_routing["first_touches"] > 0


# -- home-resident splits: hot runs skip what their executions cannot change
#
# After a hot run's first full probe on a node, every id homed there has
# a HOME copy on the node, which stays HOME until the object re-homes.
# Later executions on that node in the same home epoch probe and
# write-book only the ids homed elsewhere.  Each case below moves what a
# split depends on — the home of an object, the DJVM, the thread's node
# — between executions, and must leave the scalar loop's result.


class RehomingHook(FastHook):
    """A first-touch hook that also acts as a home-migration policy:
    when thread 0 closes an interval named in ``moves``, it re-homes
    those objects (``{interval_id: [(obj_id, new_home), ...]}``)."""

    def __init__(self, djvm: DJVM, moves: dict) -> None:
        super().__init__()
        self.engine = HomeMigrationEngine(djvm.hlrc)
        self.moves = moves

    def on_interval_close(self, thread, interval, sync_dst) -> None:
        if thread.thread_id != 0:
            return
        gos = self.engine.hlrc.gos
        for oid, node in self.moves.get(interval.interval_id, ()):
            self.engine.migrate_home(gos.get(oid), node)


class MigratingHook(FastHook):
    """A first-touch hook that moves thread 0 to ``moves[interval_id]``
    when it closes that interval, so no migration is pending while its
    runs execute."""

    def __init__(self, djvm: DJVM, moves: dict) -> None:
        super().__init__()
        self.djvm = djvm
        self.moves = moves

    def on_interval_close(self, thread, interval, sync_dst) -> None:
        node = self.moves.get(interval.interval_id) if thread.thread_id == 0 else None
        if node is not None:
            plan = MigrationPlan(0, node, at_interval=interval.interval_id + 1)
            self.djvm.migration.schedule(plan)


SPLIT_ROUNDS = 5


def split_programs(
    djvm: DJVM, obj_ids: list[int], rounds: int = SPLIT_ROUNDS
) -> tuple[dict[int, list], list[int]]:
    """Thread 0 (node 0) replays one body every round over objects homed
    at node 0, 1 and 2, reading and writing both kinds; thread 1
    (node 1) rewrites the node-2 object every round, so thread 0
    refaults it after each barrier.  Returns the programs and the
    body's (home 0, home 0, home 1, home 2) objects."""
    by_home = {n: [o for o in obj_ids if djvm.gos.get(o).home_node == n] for n in range(3)}
    h0, h1 = by_home[0][:2]
    f1, f2 = by_home[1][0], by_home[2][0]
    body = [
        P.read(h0, 2), P.write(h0), P.read(h1), P.write(h1, 2),
        P.read(f1), P.write(f1), P.read(f2, repeat=3), P.compute(1_000),
    ]
    main, writer = [P.call("main", 2)], [P.call("main", 2)]
    for rnd in range(rounds):
        main += [*body, P.barrier(rnd)]
        writer += [P.write(f2, 4), P.barrier(rnd)]
    idle = [P.barrier(rnd) for rnd in range(rounds)]
    programs = {0: main + [P.ret()], 1: writer + [P.ret()], 2: idle, 3: list(idle)}
    return programs, [h0, h1, f1, f2]


def test_split_follows_a_migrate_home_from_an_interval_close(execute_calls):
    """A first-touch hook re-homes a node-0 object the body writes to
    node 1, and a node-1 object to node 0, as a policy would from
    ``on_interval_close``.  The run stays on the one pass; node 0's
    split from before the move is stale (its HOME copy of the first is
    now a cache copy that faults, twins and diffs), and the engine must
    take a new one — as the scalar loop behaves."""
    outcomes = {}
    for replay in ("vector", "scalar"):
        djvm, obj_ids = build_djvm(replay=replay)
        programs, (h0, _, f1, _) = split_programs(djvm, obj_ids)
        hook = RehomingHook(djvm, {2: [(h0, 1), (f1, 0)]})
        djvm.add_hook(hook)
        res = djvm.run(programs)
        outcomes[replay] = (
            run_fingerprint(djvm, res), hook.events, djvm.replay_routing, hook.engine.stats
        )
    vector, scalar = outcomes["vector"], outcomes["scalar"]
    assert vector[:2] == scalar[:2]
    assert vector[3].migrations == 2
    body = execute_calls[0]
    assert body.hot and execute_calls.count(body) == SPLIT_ROUNDS
    assert vector[2]["home_resident"] > 0
    # h0 at its new home (node 1) since the move: node 0's copy is a cache.
    assert djvm.gos.get(h0).home_node == 1


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_one_compiled_program_on_two_placements(seed):
    """The ledger's reuse pattern: one compiled program runs on a DJVM
    with block homes, then on one with cyclic homes.  Each DJVM draws
    its own home epoch, so the second takes its own splits rather than
    skipping objects the first had at home."""
    progs = None
    for homes in ("block", "cyclic"):
        outcomes = {}
        for replay in ("vector", "scalar"):
            djvm, obj_ids = build_djvm(replay=replay, homes=homes)
            ops = repeating_programs(seed, obj_ids)
            if replay == "vector":
                progs = progs or {tid: P.compile_program(o) for tid, o in ops.items()}
                ops = progs
            res = djvm.run(ops)
            outcomes[replay] = (fingerprint(djvm, res), run_fingerprint(djvm, res))
            if replay == "vector":
                assert djvm.replay_routing["home_resident"] > 0
        assert outcomes["vector"] == outcomes["scalar"]


def test_a_thread_that_migrates_between_executions(execute_calls):
    """Thread 0 runs the body twice on node 0, three times on node 3,
    then twice more on node 0.  The first execution after each move
    runs on the scalar loop (the migration is pending until it fires
    there); the engine then takes a split for node 3 and uses it, and
    node 0's is still good on the way back (nothing re-homed
    meanwhile)."""
    rounds = 7
    outcomes = {}
    for replay in ("vector", "scalar"):
        djvm, obj_ids = build_djvm(replay=replay)
        programs, _ = split_programs(djvm, obj_ids, rounds)
        hook = MigratingHook(djvm, {2: 3, 5: 0})
        djvm.add_hook(hook)
        res = djvm.run(programs)
        outcomes[replay] = (run_fingerprint(djvm, res), hook.events, djvm.replay_routing)
    vector, scalar = outcomes["vector"], outcomes["scalar"]
    assert vector[:2] == scalar[:2]
    body = execute_calls[0]
    assert execute_calls.count(body) == rounds - 2
    assert sorted(body._splits) == [0, 3]
    assert djvm.threads[0].node_id == 0
    assert vector[2]["home_resident"] > 0


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    elif isinstance(value, dict):
        for item in value.items():
            yield from _leaves(item)
    else:
        yield value


def test_a_finished_djvm_is_collectable_while_its_programs_live_on():
    """Splits hold ints only — an epoch, ids, write counts — so compiled
    programs that outlive their DJVM (the ledger reuses them) keep
    neither its engine nor its heaps alive."""
    djvm, obj_ids = build_djvm()
    progs = compile_hot(repeating_programs(0, obj_ids))
    djvm.run(progs)
    splits = [
        vr._splits for cp in progs.values() for vr in cp.vector_runs().values() if vr._splits
    ]
    assert splits
    assert {type(leaf) for split in splits for leaf in _leaves(split)} <= {int, type(None)}
    hlrc, heap = weakref.ref(djvm.hlrc), weakref.ref(djvm.hlrc.heaps[0])
    del djvm
    gc.collect()
    assert hlrc() is None and heap() is None
