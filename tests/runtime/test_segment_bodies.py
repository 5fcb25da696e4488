"""The segment body as the vector engine's unit, frame ops included.

Under HLRC copy state changes only at synchronization, so the one pass
takes every op between two sync ops at once: CALL, RET and SETSLOT ride
inside the body, their costs in its totals, and the engine applies them
to the thread's stack in op order — at the end of the body when nothing
fires inside it, and before each timer fire when one does, because a
stack sampler reads ``thread.stack``.  Each test runs the scalar oracle
and the one pass and compares what they leave behind: the end state,
every stack a timer saw, and (for a failing op) the error and the pc.
"""

from __future__ import annotations

import random

import pytest

from repro.core.stack_sampler import StackSampler
from repro.runtime import program as P
from repro.runtime.djvm import run_fingerprint

from tests.runtime.test_vector_replay import N_THREADS, build_djvm, fingerprint

SEEDS = [0, 1, 2, 3, 4, 5]
N_SLOTS = 3


class StackRecorder:
    """A deadline timer that snapshots the whole stack at each fire —
    every frame's method and slots — with the clock and pc, and charges
    a fixed cost, as a stack sampler does.  Its period is shorter than
    most compute ops, so fires land at every kind of op boundary,
    between a CALL and the body's next access among them."""

    PERIOD_NS = 9_000
    COST_NS = 1_000

    def __init__(self) -> None:
        self._next: dict[int, int] = {}
        self.samples: list[tuple] = []

    def next_fire_ns(self, thread) -> int:
        return self._next.setdefault(thread.thread_id, self.PERIOD_NS)

    def maybe_fire(self, thread) -> None:
        now = thread.clock.now_ns
        if now < self.next_fire_ns(thread):
            return
        stack = tuple((f.method, tuple(f.slots)) for f in thread.stack)
        self.samples.append((thread.thread_id, now, thread.pc, stack))
        self._next[thread.thread_id] = now + self.PERIOD_NS
        thread.cpu.stack_sampling_ns += self.COST_NS
        thread.clock.advance(self.COST_NS)


def framed_programs(seed: int, obj_ids: list[int]) -> dict[int, list]:
    """Barrier-separated rounds whose bodies interleave CALL, RET and
    SETSLOT with accesses and computes: frames opened in one body are
    closed in a later one, some bodies open with a CALL, and one in
    five holds no access at all."""
    rng = random.Random(seed)
    programs: dict[int, list] = {}
    for tid in range(N_THREADS):
        ops: list = [P.call("main", N_SLOTS)]
        depth = 1
        for rnd in range(5):
            no_access = rng.random() < 0.2
            for _ in range(rng.randint(4, 14)):
                r = rng.random()
                if r < 0.15:
                    refs = [(rng.randrange(N_SLOTS), rng.choice(obj_ids))] if rng.random() < 0.5 else []
                    ops.append(P.call(f"m{rng.randrange(3)}", N_SLOTS, refs))
                    depth += 1
                elif r < 0.27 and depth > 1:
                    ops.append(P.ret())
                    depth -= 1
                elif r < 0.4:
                    value = rng.choice(obj_ids) if rng.random() < 0.7 else None
                    ops.append(P.setslot(rng.randrange(N_SLOTS), value))
                elif r < 0.55 or no_access:
                    ops.append(P.compute(rng.randint(1_000, 20_000)))
                elif r < 0.75:
                    ops.append(P.write(rng.choice(obj_ids), n_elems=rng.randint(1, 4)))
                else:
                    ops.append(P.read(rng.choice(obj_ids), repeat=rng.randint(1, 3)))
            if rng.random() < 0.3:
                ops += [P.acquire(0), P.write(rng.choice(obj_ids)), P.release(0)]
            ops.append(P.barrier(rnd))
        ops += [P.ret()] * depth
        programs[tid] = ops
    return programs


def run_framed(seed: int, replay: str, timer: str | None) -> tuple:
    """What a framed run leaves behind: the run and test fingerprints,
    every thread's final stack, the timer's samples or the stack
    sampler's counts, and the routing."""
    djvm, obj_ids = build_djvm(replay=replay, history=False)
    recorder = None
    if timer == "recorder":
        recorder = StackRecorder()
        djvm.add_timer(recorder)
    elif timer == "sampler":
        # A first poll at deadline 0 keeps the head of the first body on
        # the scalar loop until the sampler is armed.
        recorder = StackSampler(djvm.costs, gap_ms=0.012)
        djvm.add_timer(recorder)
    res = djvm.run(framed_programs(seed, obj_ids))
    if timer == "sampler":
        seen = (
            recorder.samples_taken,
            recorder.frames_extracted,
            recorder.frames_raw_captured,
            [recorder.invariant_refs(t) for t in djvm.threads],
        )
    else:
        seen = recorder and recorder.samples
    stacks = [[(f.method, tuple(f.slots)) for f in t.stack] for t in djvm.threads]
    left = (run_fingerprint(djvm, res), fingerprint(djvm, res), stacks, seen)
    return left, djvm.replay_routing


@pytest.mark.parametrize("timer", [None, "recorder", "sampler"])
@pytest.mark.parametrize("seed", SEEDS)
def test_framed_bodies_match_scalar(seed, timer):
    vector, routing = run_framed(seed, "vector", timer)
    scalar, _ = run_framed(seed, "scalar", timer)
    assert vector == scalar
    assert routing["runs"] > 0
    if timer is not None:
        assert routing["timer_fires"] > 0


def test_fires_between_a_call_and_the_next_access_see_the_new_frame():
    """A body that opens a frame and computes before its first access:
    the timer fires after the CALL, before the access, and must see the
    frame the CALL pushed with the slot the SETSLOT stored."""
    samples = {}
    for replay in ("vector", "scalar"):
        djvm, obj_ids = build_djvm(replay=replay)
        recorder = StackRecorder()
        djvm.add_timer(recorder)
        a, b = obj_ids[:2]
        body = [P.call("f", N_SLOTS), P.setslot(1, a), P.compute(20_000), P.read(a), P.ret(), P.read(b)]
        main = [P.call("main", N_SLOTS), P.barrier(0), *body, P.barrier(1), P.ret()]
        idle = [P.barrier(0), P.barrier(1)]
        djvm.run({0: main, **{t: list(idle) for t in range(1, N_THREADS)}})
        samples[replay] = [s for s in recorder.samples if s[0] == 0]
        if replay == "vector":
            assert djvm.replay_routing["timer_fires"] > 0
    assert samples["vector"] == samples["scalar"]
    # The fire after the compute (op 3 of the body, pc 5) sees f's frame.
    (_, _, pc, stack), *_ = samples["vector"]
    assert pc == 5 and stack == (("main", (None,) * N_SLOTS), ("f", (None, a, None)))


def failing_run(replay: str, ops: list) -> tuple:
    """The error a one-thread program raises on ``replay`` and the pc it
    leaves, the program handed past the IR gate (a malformed program
    must fail at run time the same way on both routes)."""
    djvm, obj_ids = build_djvm(replay=replay)
    program = P.compile_program(ops(obj_ids))
    program._verified = True
    with pytest.raises(Exception) as info:
        djvm.run({0: program, **{t: [P.call("main", 1), P.ret()] for t in range(1, N_THREADS)}})
    return type(info.value), str(info.value), djvm.threads[0].pc, djvm.replay_routing.get("runs")


@pytest.mark.parametrize(
    "ops, pc",
    [
        # SETSLOT with no frame on the stack, after two accesses.
        (lambda ids: [P.read(ids[0]), P.compute(5), P.write(ids[1]), P.setslot(0, ids[2]), P.read(ids[3])], 4),
        # A CALL whose preset ref lies outside its frame.
        (lambda ids: [P.read(ids[0]), P.call("f", 1, [(2, ids[1])]), P.read(ids[2]), P.ret()], 1),
    ],
    ids=["setslot_on_empty_stack", "call_ref_out_of_range"],
)
def test_a_failing_frame_op_raises_the_scalar_error_at_its_pc(ops, pc):
    vector = failing_run("vector", ops)
    scalar = failing_run("scalar", ops)
    assert vector[:3] == scalar[:3]
    assert vector[2] == pc
    assert vector[3] > 0  # the one pass took the failing body


def test_a_body_with_no_access_takes_the_one_pass():
    """Frame and compute ops alone make a body too: the one pass charges
    them and leaves the stack the scalar loop leaves."""
    left = {}
    for replay in ("vector", "scalar"):
        djvm, obj_ids = build_djvm(replay=replay)
        body = [P.call("f", 2), P.compute(3_000), P.setslot(0, obj_ids[0]), P.setslot(1, None), P.ret()]
        programs = {t: [P.call("main", 1), *body, P.barrier(0), P.compute(7), P.ret()] for t in range(N_THREADS)}
        res = djvm.run(programs)
        left[replay] = (run_fingerprint(djvm, res), [t.cpu.access_ns for t in djvm.threads])
        if replay == "vector":
            assert djvm.replay_routing["runs"] == 2 * N_THREADS
    assert left["vector"] == left["scalar"]
