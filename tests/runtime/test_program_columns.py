"""Programs as columns: the tuple adapter round-trips, the emitter and
the adapter agree, and malformed input fails where it always did.

Programs are drawn from the randomized generators of
``test_vector_replay`` (access bursts, computes, locks, barriers) with
CALLs carrying slot refs, SETSLOTs clearing or setting a slot, and
nested frames mixed in.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.runtime.program import ColumnEmitter, CompiledProgram, compile_program
from tests.runtime.test_vector_replay import build_djvm, random_programs, repeating_programs

OBJ_IDS = list(range(40))


def with_frames(ops: list, seed: int) -> list:
    """``ops`` with frames, slot stores and lock pairs spliced in at
    random points between ops of its outermost frame."""
    rng = random.Random(seed)
    out = [ops[0]]
    for op in ops[1:-1]:
        if op[0] != P.OP_ACQUIRE and rng.random() < 0.08:
            refs = tuple((slot, rng.choice(OBJ_IDS)) for slot in range(rng.randint(0, 3)))
            out += [
                P.call(f"m{rng.randint(0, 3)}", rng.randint(3, 6), refs),
                P.setslot(rng.randint(0, 2), None if rng.random() < 0.5 else rng.choice(OBJ_IDS)),
                P.setslot(0, None),
                P.ret(),
            ]
        if op[0] != P.OP_ACQUIRE and rng.random() < 0.05:
            out += [P.acquire(7), P.compute(rng.randint(0, 1 << 40)), P.release(7)]
        out.append(op)
    out.append(ops[-1])
    return out


def drawn_programs(seed: int, repeating: bool) -> list[list]:
    make = repeating_programs if repeating else random_programs
    return [with_frames(list(ops), seed + tid) for tid, ops in sorted(make(seed, OBJ_IDS).items())]


def emitted(ops: list) -> CompiledProgram:
    """``ops`` through the column emitter, in chunks of one to five ops."""
    out = ColumnEmitter()
    k = 0
    while k < len(ops):
        chunk = ops[k : k + 1 + k % 5]
        k += len(chunk)
        for op in chunk:
            if op[0] == P.OP_CALL:
                out.call(op[1], op[2], op[3])
            elif op[0] == P.OP_SETSLOT and op[2] is None:
                out.side[out.n_ops] = None
                out.ops((P.OP_SETSLOT,), args=op[1])
            else:
                fields = list(op[1:]) + [0] * (5 - len(op))
                if op[0] == P.OP_SETSLOT:
                    fields = [op[1], op[2], 0, 0]
                out.ops((op[0],), *fields)
    return out.program()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 1 << 16), st.booleans())
def test_compile_then_iterate_gives_back_the_tuples(seed, repeating):
    for ops in drawn_programs(seed, repeating):
        program = compile_program(ops)
        decoded = list(program)
        assert decoded == ops
        # Fields come back as Python ints, never numpy scalars.
        assert all(type(v) is int for op in decoded for v in op if v is not None and not isinstance(v, (str, tuple)))
        assert len(program) == len(ops) and program.codes == bytes(op[0] for op in ops)
        assert compile_program([(*op,) for op in ops]) == program


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 1 << 16))
def test_emitted_columns_equal_the_adapter_and_intern_alike(seed):
    for ops in drawn_programs(seed, True):
        program = compile_program(ops)
        out = emitted(ops)
        assert out == program and list(out) == ops
        runs, twins = program.vector_runs(), out.vector_runs()
        assert runs == twins


def test_columns_take_the_narrowest_dtype():
    program = compile_program([P.read(5, 300, 1, 0), P.compute(1 << 40), P.barrier(1)])
    assert program._args.dtype == np.int64
    assert program._n_elems.dtype == np.int16
    assert program._repeat.dtype == np.int8 and program._elem_off.dtype == np.int8


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 1 << 16), st.integers(P.OP_BARRIER + 1, 255), st.data())
def test_an_unknown_opcode_fails_at_compile_naming_its_pc(seed, code, data):
    ops = drawn_programs(seed, False)[0]
    pc = data.draw(st.integers(0, len(ops)))
    bad = [*ops[:pc], (code, 0), *ops[pc:]]
    with pytest.raises(ValueError, match=f"op {pc}: unknown opcode {code}"):
        compile_program(bad)


def test_a_non_int_opcode_fails_at_compile():
    with pytest.raises(TypeError):
        compile_program([P.read(1), ("READ", 1, 1, 1, 0)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(0, 1 << 16),
    st.one_of(st.floats(allow_nan=False), st.text(max_size=3), st.none(), st.just(1 << 64)),
    st.data(),
)
def test_a_non_int_field_is_a_value_error_naming_the_pc(seed, value, data):
    ops = drawn_programs(seed, False)[0]
    candidates = [
        (pc, k)
        for pc, op in enumerate(ops)
        for k in range(1, len(op))
        if op[0] != P.OP_CALL and not (op[0] == P.OP_SETSLOT and k == 2)
    ]
    pc, k = data.draw(st.sampled_from(candidates))
    if isinstance(value, float) and value.is_integer():
        value += 0.5
    bad = list(ops)
    bad[pc] = (*ops[pc][:k], value, *ops[pc][k + 1 :])
    with pytest.raises(ValueError, match=f"^op {pc}: {P.OPCODE_NAMES[ops[pc][0]]} field "):
        compile_program(bad)


def test_an_op_of_the_wrong_arity_is_a_value_error_naming_the_pc():
    with pytest.raises(ValueError, match="op 1: READ has 2 fields, expected 5"):
        compile_program([P.call("m", 2), (P.OP_READ, 1), P.ret()])


@pytest.mark.parametrize("replay", ["vector", "scalar"])
@pytest.mark.parametrize("span", [1, 8], ids=["scalar_op", "in_a_run"])
def test_a_negative_compute_fails_at_execution(replay, span):
    """A negative COMPUTE compiles; executing it raises from
    ``CostModel.scaled_compute`` on either route, alone or inside an
    access run the one pass takes."""
    djvm, obj_ids = build_djvm(replay=replay)
    body = [P.read(obj_ids[k % 4]) for k in range(span - 1)] + [P.compute(-5)]
    programs = {t: [P.call("main", 2), *body, P.barrier(0), P.ret()] for t in range(4)}
    program = compile_program(programs[0])
    assert list(program) == programs[0]
    with pytest.raises(ValueError, match="compute cost cannot be negative: -5"):
        djvm.run(programs)


def test_side_table_must_cover_every_call():
    with pytest.raises(ValueError, match="side table"):
        CompiledProgram(bytes([P.OP_CALL, P.OP_RET]), [0, 0], [2, 0], [0, 0], [0, 0], {})


def test_a_repeat_runs_its_body_again_and_side_keys_stay_store_positions():
    out = ColumnEmitter()
    out.call("m", 2, ((0, 5),))
    out.ops((P.OP_READ, P.OP_RET, P.OP_BARRIER), (5, 0, 0), (1, 0, 0), (1, 0, 0))
    out.repeat(0, P.OP_BARRIER, 1)
    out.call("n", 3, ())
    out.ops((P.OP_RET,))
    body = [P.call("m", 2, ((0, 5),)), P.read(5), P.ret()]
    ops = [*body, P.barrier(0), *body, P.barrier(1), P.call("n", 3, ()), P.ret()]
    program = out.program()
    assert list(program) == ops and program == compile_program(ops)
    assert len(program.body_lo) == 2 and program.seg_body == [0, 0, 1]


def test_a_repeat_must_follow_a_sync_op_and_name_an_emitted_body():
    early = ColumnEmitter()
    early.ops((P.OP_COMPUTE, P.OP_BARRIER), (1, 0))
    early.ops((P.OP_COMPUTE,), 1)
    early.repeat(0, P.OP_BARRIER, 1)
    with pytest.raises(ValueError, match="does not follow a sync op"):
        early.program()
    ahead = ColumnEmitter()
    ahead.ops((P.OP_COMPUTE, P.OP_BARRIER), (1, 0))
    ahead.repeat(1, P.OP_BARRIER, 1)
    with pytest.raises(ValueError, match="not emitted before it"):
        ahead.program()


def test_workload_programs_decode_without_numpy_scalars():
    from repro.workloads import WaterSpatialWorkload

    wl = WaterSpatialWorkload(n_molecules=48, rounds=2, n_threads=4, grid=3)
    wl.build(DJVM(4))
    for program in wl.programs().values():
        for op in program:
            assert all(type(v) in (int, str, tuple) or v is None for v in op[1:])


def test_int64_sized_fields_are_summed_exactly_on_the_one_pass():
    """Repeats and computes whose sums overflow int64 price the same on
    the one pass, which sums them in the lane table, as on the scalar
    loop, which adds Python ints."""
    from repro.runtime.djvm import run_fingerprint

    prints = {}
    for replay in ("vector", "scalar"):
        djvm, obj_ids = build_djvm(replay=replay)
        body = [P.read(obj_ids[k % 3], repeat=(1 << 61) if k == 2 else 1) for k in range(8)]
        body.append(P.compute((1 << 62) + 5))
        res = djvm.run({t: [P.call("m", 2), *body, P.barrier(0), P.ret()] for t in range(4)})
        prints[replay] = run_fingerprint(djvm, res)
        if replay == "vector":
            assert djvm.replay_routing["runs"] == 8  # each thread's two bodies
    assert prints["vector"] == prints["scalar"]
