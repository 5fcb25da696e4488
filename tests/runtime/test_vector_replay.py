"""Vectorized access replay vs the scalar oracle.

Randomized access programs (seeded) run twice — ``replay="scalar"`` and
``replay="vector"`` — and every observable must match: protocol
counters, thread clocks, network traffic, and the interval history down
to per-object access summaries in first-touch order.  Configurations
cover the paths the vector engine special-cases: no observers (the
summary-free fast path), interval history kept, a deadline-API timer
and a ``fast_on_access`` profiler hook.  The paper workloads (SOR /
Barnes-Hut / Water-Spatial) run through the same comparison.
"""

from __future__ import annotations

import random

import pytest

from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.workloads.barnes_hut import BarnesHutWorkload
from repro.workloads.sor import SORWorkload
from repro.workloads.water_spatial import WaterSpatialWorkload

from tests.conftest import compile_hot

N_NODES = 4
N_THREADS = 4
N_SCALARS = 24
N_ARRAYS = 8
ARR_LEN = 64


def build_djvm(**kwargs) -> tuple[DJVM, list[int]]:
    djvm = DJVM(N_NODES, **kwargs)
    scalar_cls = djvm.define_class("Obj", 64)
    array_cls = djvm.define_class("Arr", is_array=True, element_size=8)
    obj_ids = [
        djvm.allocate(scalar_cls, i % N_NODES).obj_id for i in range(N_SCALARS)
    ]
    obj_ids += [
        djvm.allocate(array_cls, i % N_NODES, length=ARR_LEN).obj_id
        for i in range(N_ARRAYS)
    ]
    for t in range(N_THREADS):
        djvm.spawn_thread(t % N_NODES)
    return djvm, obj_ids


def random_programs(seed: int, obj_ids: list[int]) -> dict[int, list]:
    """Barrier-separated rounds of random access bursts.

    Bursts are long enough (up to 24 consecutive access ops) that most
    cross the vectorizer's minimum-run threshold, with short bursts,
    computes, locks and call/ret mixed in so scalar↔vector transitions
    and mid-segment sync points are exercised too."""
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
                for _ in range(rng.randint(3, 24)):
                    oid = rng.choice(obj_ids)
                    if rng.random() < 0.35:
                        ops.append(P.write(oid, n_elems=rng.randint(1, 4)))
                    else:
                        ops.append(
                            P.read(
                                oid,
                                n_elems=rng.randint(1, 8),
                                repeat=rng.randint(1, 3),
                            )
                        )
            ops.append(P.barrier(rnd))
        ops.append(P.ret())
        programs[tid] = ops
    return programs


def fingerprint(djvm: DJVM, res) -> dict:
    history = {}
    for tid, intervals in sorted(djvm.hlrc.interval_history.items()):
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
                    for s in iv.accesses.values()
                ),
                tuple(sorted(iv.written)),
            )
            for iv in intervals
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


def run_replay(
    seed: int,
    replay: str,
    *,
    observer: str | None = None,
    **kwargs,
):
    djvm, obj_ids = build_djvm(replay=replay, **kwargs)
    extra = None
    if observer == "timer":
        extra = DeadlineTimer()
        djvm.add_timer(extra)
    elif observer == "hook":
        extra = FastHook()
        djvm.add_hook(extra)
    res = djvm.run(compile_hot(random_programs(seed, obj_ids), replay))
    fp = fingerprint(djvm, res)
    if extra is not None:
        fp["observer"] = list(extra.events)
    return fp


class DeadlineTimer:
    """Deadline-API timer: fires every 200 simulated microseconds and
    records (thread, deadline) — firing order and count must not depend
    on the replay engine."""

    PERIOD_NS = 200_000

    def __init__(self) -> None:
        self._next: dict[int, int] = {}
        self.events: list[tuple[int, int]] = []

    def next_fire_ns(self, thread) -> int:
        return self._next.setdefault(thread.thread_id, self.PERIOD_NS)

    def maybe_fire(self, thread) -> None:
        now = thread.clock.now_ns
        nxt = self._next.setdefault(thread.thread_id, self.PERIOD_NS)
        while now >= nxt:
            self.events.append((thread.thread_id, nxt))
            nxt += self.PERIOD_NS
        self._next[thread.thread_id] = nxt


class FastHook:
    """A ``fast_on_access`` profiler hook recording first touches."""

    def __init__(self) -> None:
        self.events: list[tuple[int, int, int, bool]] = []

    def on_interval_open(self, thread) -> None:
        pass

    def on_interval_close(self, thread, interval, sync_dst) -> None:
        pass

    def on_access(self, thread, obj, **kw) -> None:  # pragma: no cover
        self.fast_on_access(thread, obj, kw.get("real_fault", False))

    def fast_on_access(self, thread, obj, real_fault) -> None:
        self.events.append(
            (thread.thread_id, thread.interval_counter, obj.obj_id, real_fault)
        )


SEEDS = [0, 1, 2, 3, 4]


@pytest.mark.parametrize("seed", SEEDS)
def test_vector_matches_scalar_bare(seed):
    """No observers: the engine's summary-free fast path."""
    assert run_replay(seed, "vector") == run_replay(seed, "scalar")


@pytest.mark.parametrize("seed", SEEDS)
def test_vector_matches_scalar_with_history(seed):
    """Interval history kept: full per-object summary bookkeeping."""
    assert run_replay(
        seed, "vector", keep_interval_history=True
    ) == run_replay(seed, "scalar", keep_interval_history=True)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_vector_matches_scalar_with_timer(seed):
    """Deadline-API timer: identical fire times through bulk advances."""
    assert run_replay(
        seed, "vector", observer="timer", keep_interval_history=True
    ) == run_replay(seed, "scalar", observer="timer", keep_interval_history=True)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_vector_matches_scalar_with_fast_hook(seed):
    """fast_on_access hook: same first-touch stream from both engines."""
    assert run_replay(
        seed, "vector", observer="hook", keep_interval_history=True
    ) == run_replay(seed, "scalar", observer="hook", keep_interval_history=True)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_cold_runs_warm_up_scalar_and_stay_identical(seed):
    """Without pre-marking, one-shot runs take the warm-up (scalar)
    path: results still match, and the engine reports no executions."""
    djvm, obj_ids = build_djvm(replay="vector", keep_interval_history=True)
    progs = {
        tid: P.compile_program(ops)
        for tid, ops in random_programs(seed, obj_ids).items()
    }
    fp = fingerprint(djvm, djvm.run(progs))
    assert fp == run_replay(seed, "scalar", keep_interval_history=True)
    # every run was sighted once, so all are marked hot but none ran hot
    for cp in progs.values():
        assert all(vr.hot for vr in cp.vector_runs().values())
        assert all(vr.uniq is None for vr in cp.vector_runs().values())


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_hot_runs_materialize_lanes_lazily(seed):
    """A program run twice (two DJVMs sharing the compiled form, as the
    bench harness does) vectorizes on the second pass and only then
    builds lanes."""
    fps = []
    progs = None
    for _ in range(2):
        djvm, obj_ids = build_djvm(replay="vector", keep_interval_history=True)
        if progs is None:
            progs = {
                tid: P.compile_program(ops)
                for tid, ops in random_programs(seed, obj_ids).items()
            }
        fps.append(fingerprint(djvm, djvm.run(progs)))
    assert fps[0] == fps[1] == run_replay(
        seed, "scalar", keep_interval_history=True
    )
    materialized = [
        vr
        for cp in progs.values()
        for vr in cp.vector_runs().values()
        if vr.uniq is not None
    ]
    assert materialized, "second execution should have engaged the engine"


WORKLOADS = {
    "sor": lambda: SORWorkload(n=128, rounds=2, n_threads=N_NODES, seed=3),
    "barnes_hut": lambda: BarnesHutWorkload(
        n_bodies=96, rounds=2, n_threads=N_NODES, seed=3
    ),
    "water_spatial": lambda: WaterSpatialWorkload(
        n_molecules=64, rounds=2, n_threads=N_NODES, seed=3
    ),
}


def run_workload(name: str, replay: str) -> dict:
    djvm = DJVM(N_NODES, keep_interval_history=True, replay=replay)
    workload = WORKLOADS[name]()
    workload.build(djvm)
    return fingerprint(djvm, djvm.run(compile_hot(workload.programs(), replay)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_vector_replay_matches_scalar_on_workloads(name):
    """The paper workloads, not just random programs: byte-identical
    down to the interval history."""
    assert run_workload(name, "vector") == run_workload(name, "scalar")
