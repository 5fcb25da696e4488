"""The workload IR verifier: well-formedness checks over pre-decoded
thread programs, plus the structural hard gate every run passes.

Two tiers, two costs:

* :func:`verify_structure` — the **gate tier**: the structural
  invariants the stack machine and the vector replay engine rely on
  (CALL/RET balance, SETSLOT-in-frame, lock pairing), computed once
  per distinct segment body over the program's store with numpy
  cumulative sums, then by a Python walk over the segment sequence
  alone — never over the whole op stream.  The interpreter calls
  :func:`gate_program` on every compiled program before a run, on
  both replay routes; the result is cached on the compiled program
  (``CompiledProgram._verified``) so reuse across DJVM instances — the
  bench-harness pattern — verifies once.
* :func:`verify_ops` / :func:`verify_workload` — the **full tier** for
  the CLI and tests: per-op arity/field domains, lock-across-barrier,
  object-id domain against the allocated heap, thread placement, and
  cross-thread barrier pairing (every thread must issue the same
  barrier-id sequence, or the run deadlocks at the first divergence).

Problem codes
-------------

========  ============================================================
IR001     unknown opcode (outside ``OP_READ..OP_BARRIER``)
IR002     malformed op: wrong tuple arity or field outside its domain
IR003     CALL/RET imbalance (RET on empty stack / unpopped frames)
IR004     SETSLOT outside any frame
IR005     lock pairing: re-acquire of a held lock, release of an
          unheld lock, or program end while holding locks
IR006     barrier crossed while holding a lock (serializes the whole
          episode behind the holder and breaks phase alignment)
IR007     object id not allocated in the workload's object space
IR008     barrier-id sequences differ across threads (deadlock at the
          first divergence: barrier parties = all threads)
IR009     thread placed on a node outside the cluster
========  ============================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.program import (
    ARITY,
    OP_ACQUIRE,
    OP_BARRIER,
    OP_CALL,
    OP_COMPUTE,
    OP_READ,
    OP_RELEASE,
    OP_RET,
    OP_SETSLOT,
    OP_WRITE,
    OPCODE_NAMES,
    CompiledProgram,
)

__all__ = [
    "IRProblem",
    "IRVerificationError",
    "verify_structure",
    "verify_ops",
    "verify_workload",
    "gate_program",
]


@dataclass(frozen=True, slots=True)
class IRProblem:
    """One verifier finding: where in which thread's program, and why."""

    code: str
    message: str
    thread_id: int | None = None
    pc: int | None = None

    def render(self) -> str:
        """Canonical ``[IRnnn] thread t op pc: message`` line."""
        where = []
        if self.thread_id is not None:
            where.append(f"thread {self.thread_id}")
        if self.pc is not None:
            where.append(f"op {self.pc}")
        prefix = " ".join(where)
        return f"[{self.code}] {prefix + ': ' if prefix else ''}{self.message}"


class IRVerificationError(RuntimeError):
    """Raised by the structural gate when a program fails verification."""

    def __init__(self, problems: list[IRProblem]) -> None:
        self.problems = problems
        lines = "\n  ".join(p.render() for p in problems)
        super().__init__(f"workload IR failed verification:\n  {lines}")


# ---------------------------------------------------------------------------
# gate tier: structural checks over the dense opcode array
# ---------------------------------------------------------------------------


def verify_structure(
    program: CompiledProgram, thread_id: int | None = None
) -> list[IRProblem]:
    """Gate-tier structural verification of one compiled program.

    Checks IR003 (CALL/RET balance), IR004 (SETSLOT-in-frame) and IR005
    (lock pairing); opcode range (IR001) needs no check here, since
    :class:`CompiledProgram` rejects a bad opcode when it is built.  Each
    distinct body is summarized once (:func:`_body_frames`) from a numpy
    cumulative sum over the store's CALL and RET ops; the walk over the
    segment sequence then carries the frame depth and the held locks
    from segment to segment, so gating a program costs far less than
    one scalar execution of it, and a body that repeats costs once.
    """
    if not program.n_ops:
        return []
    bodies = _body_frames(program)
    lo, hi = program.body_lo, program.body_hi
    frames: list[IRProblem] = []
    slots: list[IRProblem] = []
    locks: list[IRProblem] = []
    held: set[int] = set()
    depth = 0
    for base, b, code, lock in zip(program.seg_base, program.seg_body, program.seg_code, program.seg_arg):
        low, delta, first_at_depth, rel = bodies[b]
        if not frames and depth + low < 0:
            # The first frame op of the body that takes the depth below 0.
            at = int(rel[0][int(np.argmax(rel[1] < -depth))])
            frames.append(IRProblem("IR003", "RET with empty stack", thread_id, base + at))
        if not slots and -depth in first_at_depth:
            at = first_at_depth[-depth]
            slots.append(IRProblem("IR004", "SETSLOT outside any frame", thread_id, base + at))
        depth += delta
        pc = base + hi[b] - lo[b]
        if code == OP_ACQUIRE:
            if lock in held:
                locks.append(IRProblem("IR005", f"ACQUIRE of lock {lock} already held", thread_id, pc))
            held.add(lock)
        elif code == OP_RELEASE:
            if lock not in held:
                locks.append(IRProblem("IR005", f"RELEASE of lock {lock} not held", thread_id, pc))
            held.discard(lock)
    if not frames and depth > 0:
        frames.append(
            IRProblem("IR003", f"program ends with {depth} unpopped frame(s)", thread_id)
        )
    if held:
        locks.append(IRProblem("IR005", f"program ends holding locks {sorted(held)}", thread_id))
    return frames + slots + locks


def _body_frames(program: CompiledProgram) -> list[tuple]:
    """Per distinct body of ``program``: ``(lowest frame depth, net frame
    depth, {depth before a SETSLOT: its first offset}, (offsets of the
    frame ops, depth after each))``, depths relative to the body's
    entry, offsets into the body — from one cumulative sum over the
    store's CALL (+1) and RET (-1) ops, which never allocates per op."""
    arr = np.frombuffer(program._codes, dtype=np.uint8)
    frames = np.flatnonzero((arr == OP_CALL) | (arr == OP_RET))
    depth = np.concatenate(([0], np.cumsum(np.where(arr[frames] == OP_CALL, 1, -1))))
    slots = np.flatnonzero(arr == OP_SETSLOT)
    lo = np.array(program.body_lo, dtype=np.int64)
    hi = np.array(program.body_hi, dtype=np.int64)
    f_lo, f_hi = np.searchsorted(frames, lo), np.searchsorted(frames, hi)
    s_lo, s_hi = np.searchsorted(slots, lo), np.searchsorted(slots, hi)
    # Depth before each SETSLOT: after the last frame op before it.
    under = depth[np.searchsorted(frames, slots)]
    out = []
    for b, start in enumerate(program.body_lo):
        fa, fb = int(f_lo[b]), int(f_hi[b])
        entry = depth[fa]
        rel = depth[fa + 1 : fb + 1] - entry
        at = slots[s_lo[b] : s_hi[b]] - start
        at_depth = (under[s_lo[b] : s_hi[b]] - entry).tolist()
        out.append(
            (
                int(rel.min()) if rel.size else 0,
                int(rel[-1]) if rel.size else 0,
                dict(zip(reversed(at_depth), reversed(at.tolist()))),
                (frames[fa:fb] - start, rel),
            )
        )
    return out


def gate_program(program: CompiledProgram) -> None:
    """The run's hard gate: verify once, cache on the program.

    Raises :class:`IRVerificationError` when the program's structure
    would break the stack machine or the vector replay engine; a clean
    result is memoized on the compiled program so every later run
    (including other DJVM instances reusing it) skips straight through.
    """
    if program._verified:
        return
    problems = verify_structure(program)
    if problems:
        raise IRVerificationError(problems)
    program._verified = True


# ---------------------------------------------------------------------------
# full tier: per-op domains + whole-workload checks
# ---------------------------------------------------------------------------


def _check_fields(op: tuple, pc: int, tid: int | None) -> list[IRProblem]:
    """IR002 field-domain checks for one op of known opcode and arity."""
    code = op[0]
    problems: list[IRProblem] = []

    def bad(msg: str) -> None:
        problems.append(IRProblem("IR002", msg, tid, pc))

    if code in (OP_READ, OP_WRITE):
        _, obj_id, n_elems, repeat, elem_off = op
        if not isinstance(obj_id, int) or obj_id < 0:
            bad(f"{OPCODE_NAMES[code]} obj_id {obj_id!r} is not a non-negative int")
        if not isinstance(n_elems, int) or n_elems < 0:
            bad(f"{OPCODE_NAMES[code]} n_elems {n_elems!r} is not a non-negative int")
        if not isinstance(repeat, int) or repeat < 0:
            bad(f"{OPCODE_NAMES[code]} repeat {repeat!r} is not a non-negative int")
        if not isinstance(elem_off, int) or elem_off < 0:
            bad(f"{OPCODE_NAMES[code]} elem_off {elem_off!r} is not a non-negative int")
    elif code == OP_COMPUTE:
        ns = op[1]
        if not isinstance(ns, int) or ns < 0:
            bad(f"COMPUTE ns {ns!r} is not a non-negative int")
    elif code == OP_CALL:
        _, method, n_slots, refs = op
        if not isinstance(method, str):
            bad(f"CALL method {method!r} is not a str")
        if not isinstance(n_slots, int) or n_slots < 0:
            bad(f"CALL n_slots {n_slots!r} is not a non-negative int")
        if not isinstance(refs, tuple):
            bad(f"CALL refs {refs!r} is not a tuple")
        else:
            for ref in refs:
                if (
                    not isinstance(ref, tuple)
                    or len(ref) != 2
                    or not isinstance(ref[0], int)
                    or not isinstance(ref[1], int)
                ):
                    bad(f"CALL ref {ref!r} is not a (slot, obj_id) int pair")
    elif code == OP_SETSLOT:
        _, slot, obj_id = op
        if not isinstance(slot, int) or slot < 0:
            bad(f"SETSLOT slot {slot!r} is not a non-negative int")
        if obj_id is not None and (not isinstance(obj_id, int) or obj_id < 0):
            bad(f"SETSLOT obj_id {obj_id!r} is neither None nor a non-negative int")
    elif code in (OP_ACQUIRE, OP_RELEASE, OP_BARRIER):
        ident = op[1]
        if not isinstance(ident, int) or ident < 0:
            bad(f"{OPCODE_NAMES[code]} id {ident!r} is not a non-negative int")
    return problems


def verify_ops(ops, thread_id: int | None = None) -> list[IRProblem]:
    """Full per-program verification of a raw op iterable.

    Adds the per-op checks the gate tier skips: IR001 on raw (possibly
    uncompilable) streams, IR002 arity/field domains, and IR006
    (barrier crossed while holding a lock).  Structure (IR003/IR004/
    IR005) is re-derived in the same pass; on a well-typed stream it
    agrees with :func:`verify_structure` on validity and on the
    earliest finding (``tests/checks/test_staticflow.py`` checks it).
    """
    problems: list[IRProblem] = []
    depth = 0
    held: set[int] = set()
    for pc, op in enumerate(ops):
        if not isinstance(op, tuple) or not op or not isinstance(op[0], int):
            problems.append(
                IRProblem("IR002", f"op {op!r} is not an opcode-led tuple", thread_id, pc)
            )
            continue
        code = op[0]
        if code not in ARITY:
            problems.append(IRProblem("IR001", f"unknown opcode {code}", thread_id, pc))
            continue
        if len(op) != ARITY[code]:
            problems.append(
                IRProblem(
                    "IR002",
                    f"{OPCODE_NAMES[code]} op has {len(op)} fields, expected {ARITY[code]}",
                    thread_id,
                    pc,
                )
            )
            continue
        problems.extend(_check_fields(op, pc, thread_id))
        if code == OP_CALL:
            depth += 1
        elif code == OP_RET:
            depth -= 1
            if depth < 0:
                problems.append(IRProblem("IR003", "RET with empty stack", thread_id, pc))
                depth = 0
        elif code == OP_SETSLOT:
            if depth == 0:
                problems.append(
                    IRProblem("IR004", "SETSLOT outside any frame", thread_id, pc)
                )
        elif code == OP_ACQUIRE:
            if op[1] in held:
                problems.append(
                    IRProblem("IR005", f"ACQUIRE of lock {op[1]} already held", thread_id, pc)
                )
            held.add(op[1])
        elif code == OP_RELEASE:
            if op[1] not in held:
                problems.append(
                    IRProblem("IR005", f"RELEASE of lock {op[1]} not held", thread_id, pc)
                )
            held.discard(op[1])
        elif code == OP_BARRIER and held:
            problems.append(
                IRProblem(
                    "IR006",
                    f"BARRIER {op[1]} crossed while holding locks {sorted(held)}",
                    thread_id,
                    pc,
                )
            )
    if depth > 0:
        problems.append(
            IRProblem("IR003", f"program ends with {depth} unpopped frame(s)", thread_id)
        )
    if held:
        problems.append(
            IRProblem("IR005", f"program ends holding locks {sorted(held)}", thread_id)
        )
    return problems


def _object_ids_of(op: tuple):
    """Object ids an op references (accesses plus reference moves)."""
    code = op[0]
    if code in (OP_READ, OP_WRITE):
        yield op[1]
    elif code == OP_CALL:
        for _slot, obj_id in op[3]:
            yield obj_id
    elif code == OP_SETSLOT:
        if op[2] is not None:
            yield op[2]


def verify_workload(ir) -> list[IRProblem]:
    """Full whole-workload verification of a :class:`~repro.runtime.ir.
    WorkloadIR`: every per-program check plus object-id domains (IR007),
    cross-thread barrier pairing (IR008) and thread placement (IR009)."""
    problems: list[IRProblem] = []
    barrier_seqs: dict[int, tuple] = {}
    for tid in ir.thread_ids():
        program = ir.programs[tid]
        ops = list(program)
        problems.extend(verify_ops(ops, tid))
        reported: set[int] = set()
        for pc, op in enumerate(ops):
            for obj_id in _object_ids_of(op):
                if isinstance(obj_id, int) and obj_id not in ir.objects and obj_id not in reported:
                    reported.add(obj_id)
                    problems.append(
                        IRProblem(
                            "IR007", f"object {obj_id} is not allocated", tid, pc
                        )
                    )
        barrier_seqs[tid] = tuple(
            ops[pc][1] for pc, code in program.sync_points() if code == OP_BARRIER
        )
        node = ir.node_of_thread.get(tid)
        if node is None or not 0 <= node < ir.n_nodes:
            problems.append(
                IRProblem(
                    "IR009",
                    f"thread placed on node {node!r} outside cluster of {ir.n_nodes}",
                    tid,
                )
            )
    tids = ir.thread_ids()
    if tids:
        reference = barrier_seqs[tids[0]]
        for tid in tids[1:]:
            seq = barrier_seqs[tid]
            if seq != reference:
                # Pinpoint the first divergence (where the run deadlocks).
                idx = next(
                    (
                        i
                        for i in range(max(len(seq), len(reference)))
                        if i >= len(seq)
                        or i >= len(reference)
                        or seq[i] != reference[i]
                    ),
                    0,
                )
                mine = seq[idx] if idx < len(seq) else "<none>"
                theirs = reference[idx] if idx < len(reference) else "<none>"
                problems.append(
                    IRProblem(
                        "IR008",
                        f"barrier sequence diverges from thread {tids[0]} at "
                        f"episode {idx}: {mine} vs {theirs}",
                        tid,
                    )
                )
    return problems
