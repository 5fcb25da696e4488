"""Thread programs: the op-stream format workloads compile to.

A thread program is an iterable of small tuples — the simulator's
"bytecode".  Access ops are *aggregated*: one READ op can stand for
``repeat`` accesses touching ``n_elems`` distinct elements of an object,
which keeps op streams tractable while preserving exactly what the
protocol and the profilers observe (object identity, access counts,
element coverage, interval structure, stack shape).

Opcodes
-------

========  =======================================================
READ      (OP_READ, obj_id, n_elems, repeat, elem_off)
WRITE     (OP_WRITE, obj_id, n_elems, repeat, elem_off)
COMPUTE   (OP_COMPUTE, ns) — pure CPU work
CALL      (OP_CALL, method, n_slots, ((slot, obj_id), ...))
RET       (OP_RET,)
SETSLOT   (OP_SETSLOT, slot, obj_id_or_None)
ACQUIRE   (OP_ACQUIRE, lock_id)
RELEASE   (OP_RELEASE, lock_id)
BARRIER   (OP_BARRIER, barrier_id)
========  =======================================================
"""

from __future__ import annotations

import re
from collections import deque
from itertools import compress
from operator import getitem, itemgetter, mul
from typing import Iterable, Iterator

OP_READ = 0
OP_WRITE = 1
OP_COMPUTE = 2
OP_CALL = 3
OP_RET = 4
OP_SETSLOT = 5
OP_ACQUIRE = 6
OP_RELEASE = 7
OP_BARRIER = 8

OPCODE_NAMES = {
    OP_READ: "READ",
    OP_WRITE: "WRITE",
    OP_COMPUTE: "COMPUTE",
    OP_CALL: "CALL",
    OP_RET: "RET",
    OP_SETSLOT: "SETSLOT",
    OP_ACQUIRE: "ACQUIRE",
    OP_RELEASE: "RELEASE",
    OP_BARRIER: "BARRIER",
}

Op = tuple

#: shortest READ/WRITE/COMPUTE span worth replaying in bulk — below this
#: the vector engine's fixed per-run overhead beats the scalar loop.
MIN_VECTOR_RUN = 6

#: maximal spans of access-stream opcodes (READ=0, WRITE=1, COMPUTE=2)
#: found at C speed over the dense opcode array.
_ACCESS_RUN_RE = re.compile(rb"[\x00-\x02]+")

#: synchronization opcodes (ACQUIRE=6, RELEASE=7, BARRIER=8) located at
#: C speed for segment splitting (the static CFG builder's boundaries).
_SYNC_OP_RE = re.compile(rb"[\x06-\x08]")

#: every valid opcode byte: ``codes.translate(None, _OPCODES)`` deletes
#: them at C speed and leaves only the out-of-range ones.
_OPCODES = bytes(range(OP_BARRIER + 1))

#: opcode -> selector byte translation tables over a run's opcode bytes
#: (READ=0, WRITE=1, COMPUTE=2): access ops, write ops, compute ops.
_ACCESS_MASK = bytes.maketrans(b"\x00\x01\x02", b"\x01\x01\x00")
_WRITE_MASK = bytes.maketrans(b"\x00\x01\x02", b"\x00\x01\x00")
_COMPUTE_MASK = bytes.maketrans(b"\x00\x01\x02", b"\x00\x00\x01")
#: per-op field holding its static cost factor: READ/WRITE the repeat
#: count (op[3]), COMPUTE the nanoseconds (op[1]).
_STATIC_FIELD = bytes.maketrans(b"\x00\x01\x02", b"\x03\x03\x01")
_OPCODE = itemgetter(0)
_ARG = itemgetter(1)
_REPEAT = itemgetter(3)


def bad_opcode_pc(codes: bytes) -> int | None:
    """The pc of the first opcode outside ``OP_READ..OP_BARRIER`` in a
    dense opcode array, or None — found at C speed either way: the first
    byte left after deleting the valid ones is the first bad opcode."""
    bad = codes.translate(None, _OPCODES)
    return codes.index(bad[0]) if bad else None


class AccessRun:
    """One distinct READ/WRITE/COMPUTE op sequence of a compiled program.

    The vector replay engine (:mod:`repro.runtime.vector`) executes such
    a sequence in one pass instead of per-op dispatch.  A run is keyed by
    **content**: :meth:`CompiledProgram.vector_runs` maps every
    occurrence of an equal body to one shared run, so a run knows nothing
    about where it sits; the interpreter advances past an occurrence by
    ``n_ops``.

    A body that occurs at least twice in its program is born ``hot``
    and caches its :func:`lean_lane` on its first execution, keyed by
    the :class:`~repro.sim.costs.CostModel` it was priced under
    (``_cost_key`` / ``_lane``, kept by the engine), and the walk
    columns of :func:`walk_lane` (``_cols``) on its first walked
    execution.  A singleton stays cold and is priced from transient
    ones every time: a one-shot body would keep cached ones alive for
    nothing.

    A hot run also keeps, per node it ran on, its *home-resident split*
    (``_splits``, kept by the engine): the ids it must still probe
    there — those homed elsewhere — and their write lanes, tagged with
    the home epoch it was taken in.  Only ints: a split outlives the
    DJVM it was taken in without keeping its heaps alive.
    """

    __slots__ = ("n_ops", "ops", "hot", "_cost_key", "_lane", "_cols", "_splits")

    def __init__(self, body: tuple) -> None:
        self.n_ops = len(body)
        self.ops = body
        #: the body repeats in its program (set by ``vector_runs``).
        self.hot = False
        self._cost_key = None
        self._lane = None
        self._cols = None
        self._splits = None


def lean_lane(ops: tuple, codes: bytes, costs) -> tuple[int, int, list, tuple[list, list, list]]:
    """A run body's totals, built at C speed — everything the vector
    engine's one pass reads: ``(access busy ns, compute ns, the object
    id of each access in op order, (written object ids, written
    elements, write ops))``, the written lanes parallel and in
    first-write order.  The ids keep their repeats: probing a copy and
    booking a first touch are idempotent, so the engine dedupes only
    where it hands ids on.  ``codes`` are the ops' opcode bytes (a slice
    of the compiled program's).  The caller must not mutate the result
    (a hot :class:`AccessRun` caches it).

    Compute is summed exactly as the scalar loop charges it op by op:
    the raw value on a unity scale (all non-negative ints), else
    :meth:`~repro.sim.costs.CostModel.scaled_compute` per op."""
    accesses = list(compress(ops, codes.translate(_ACCESS_MASK)))
    busy = (costs.state_check_ns + costs.access_ns) * sum(map(_REPEAT, accesses))
    compute = 0
    if len(accesses) < len(ops):
        values = list(map(_ARG, compress(ops, codes.translate(_COMPUTE_MASK))))
        raw = costs.compute_scale == 1.0
        if raw:
            compute = sum(values)
            raw = type(compute) is int and min(values) >= 0
        if not raw:
            compute = sum(map(costs.scaled_compute, values))
    return busy, compute, list(map(_ARG, accesses)), _write_lanes(ops, codes)


def _write_lanes(ops: tuple, codes: bytes) -> tuple[list, list, list]:
    """(written object ids, written elements, write ops), parallel and
    in first-write order."""
    w_oids: list[int] = []
    w_welems: list[int] = []
    w_wops: list[int] = []
    if OP_WRITE in codes:
        index: dict[int, int] = {}
        for op in compress(ops, codes.translate(_WRITE_MASK)):
            k = index.get(op[1])
            if k is None:
                index[op[1]] = len(w_oids)
                w_oids.append(op[1])
                w_welems.append(op[2])
                w_wops.append(1)
            else:
                w_welems[k] += op[2]
                w_wops[k] += 1
    return w_oids, w_welems, w_wops


def walk_lane(ops: tuple, codes: bytes, costs) -> tuple[tuple, tuple[list, list, list, dict]]:
    """A run body's :func:`lean_lane` and its per-op static columns,
    built together at C speed — what the vector engine reads to walk a
    run.  The lane's distinct objects map each to its first access op;
    the columns — ``(static cost of each op, access op indices, their
    object ids (parallel), {written object: first write op})`` — give
    each clock stop the clock the scalar loop would show.  An op's
    static cost is its access busy time or its compute, charged as the
    scalar loop charges it op by op.  ``codes`` are the ops' opcode
    bytes (a slice of the compiled program's).  The caller must not
    mutate the result (a hot :class:`AccessRun` caches it)."""
    n = len(ops)
    busy = costs.state_check_ns + costs.access_ns
    # repeat (op[3]) x busy for an access, ns (op[1]) x 1 for a compute;
    # the factors as translated opcode bytes while busy fits in one.
    factors = (busy, busy, 1)
    if busy < 256:
        factors = codes.translate(bytes.maketrans(b"\x00\x01\x02", bytes(factors)))
    else:
        factors = map(factors.__getitem__, codes)
    steps = list(map(mul, map(getitem, ops, codes.translate(_STATIC_FIELD)), factors))
    compute = 0
    if OP_COMPUTE in codes:
        compute_mask = codes.translate(_COMPUTE_MASK)
        values = list(map(_ARG, compress(ops, compute_mask)))
        raw = costs.compute_scale == 1.0 and type(sum(values)) is int and min(values) >= 0
        if not raw:
            for k, v in zip(compress(range(n), compute_mask), values):
                steps[k] = costs.scaled_compute(v)
        compute = sum(compress(steps, compute_mask))
    access_mask = codes.translate(_ACCESS_MASK)
    acc_ops = list(compress(range(n), access_mask))
    acc_oids = list(map(_ARG, compress(ops, access_mask)))
    # setdefault keeps each object's earliest op, keys in first-touch order.
    first_op: dict[int, int] = {}
    deque(map(first_op.setdefault, acc_oids, acc_ops), 0)
    first_write: dict[int, int] = {}
    if OP_WRITE in codes:
        write_mask = codes.translate(_WRITE_MASK)
        deque(map(first_write.setdefault, map(_ARG, compress(ops, write_mask)), compress(range(n), write_mask)), 0)
    lane = (sum(steps) - compute, compute, first_op, _write_lanes(ops, codes))
    return lane, (steps, acc_ops, acc_oids, first_write)


class CompiledProgram:
    """A pre-decoded thread program: the dense form the interpreter runs.

    Workloads hand the interpreter arbitrary op iterables (usually
    generators).  Compiling materializes the stream once into a flat
    tuple of ops plus a parallel ``bytes`` opcode array, so the hot
    execution loop indexes dense arrays instead of resuming a generator
    per op, and segment resumption after a synchronization yield is a
    plain cursor (the thread's ``pc``) rather than iterator state.
    """

    __slots__ = ("ops", "codes", "n_ops", "_vruns", "_verified")

    def __init__(self, ops: Iterable[Op]) -> None:
        decoded = tuple(ops) if not isinstance(ops, tuple) else ops
        # bytes() already rejects non-ints and codes outside 0..255;
        # bad_opcode_pc catches anything past the opcode range.
        codes = bytes(map(_OPCODE, decoded))
        i = bad_opcode_pc(codes)
        if i is not None:
            raise ValueError(f"op {i}: unknown opcode {codes[i]!r}")
        self.ops = decoded
        #: dense per-op opcode array (one byte per op).
        self.codes = codes
        self.n_ops = len(decoded)
        self._vruns: dict[int, AccessRun] | None = None
        #: set by the staticflow IR verifier's structural gate after the
        #: program passes, so reuse across DJVM instances (the bench
        #: harness pattern) verifies once.
        self._verified = False

    def __len__(self) -> int:
        return self.n_ops

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def vector_runs(self, min_len: int = MIN_VECTOR_RUN) -> dict[int, AccessRun]:
        """Extract (and cache) the program's vectorizable access runs.

        Returns ``{start_pc: AccessRun}`` for every maximal
        READ/WRITE/COMPUTE span of at least ``min_len`` ops.  The regex
        scan over the dense opcode array finds span boundaries at C
        speed; spans with equal bodies share one :class:`AccessRun`,
        and a body found twice is hot from the start.

        Interning is by content, in a table that lives only for this
        call.  Hashing a body would hash every op in it, so spans are
        bucketed by a cheap key — their opcode bytes (hashed at C speed)
        and their first, middle and last op — and a bucket's runs are
        told apart by tuple equality, which stops at the first differing
        op and skips ops shared by identity (a workload that replays one
        prototype body every round shares all of them).
        """
        runs = self._vruns
        if runs is None:
            runs = {}
            buckets: dict[tuple, list[AccessRun]] = {}
            ops = self.ops
            codes = self.codes
            for m in _ACCESS_RUN_RE.finditer(codes):
                s, e = m.start(), m.end()
                if e - s >= min_len:
                    body = ops[s:e]
                    key = (codes[s:e], ops[s], ops[(s + e) // 2], ops[e - 1])
                    bucket = buckets.get(key)
                    if bucket is None:
                        run = AccessRun(body)
                        buckets[key] = [run]
                    else:
                        for run in bucket:
                            if run.ops == body:
                                run.hot = True
                                break
                        else:
                            run = AccessRun(body)
                            bucket.append(run)
                    runs[s] = run
            self._vruns = runs
        return runs

    def sync_points(self) -> list[tuple[int, int]]:
        """``(pc, opcode)`` of every ACQUIRE/RELEASE/BARRIER op, in
        program order — the segment boundaries the static CFG builder
        splits at, found at C speed over the dense opcode array."""
        codes = self.codes
        return [(m.start(), codes[m.start()]) for m in _SYNC_OP_RE.finditer(codes)]


def compile_program(ops: Iterable[Op]) -> CompiledProgram:
    """Pre-decode an op iterable (idempotent on compiled programs)."""
    if isinstance(ops, CompiledProgram):
        return ops
    return CompiledProgram(ops)


def read(obj_id: int, n_elems: int = 1, repeat: int = 1, elem_off: int = 0) -> Op:
    """READ op: ``repeat`` reads over ``n_elems`` elements from ``elem_off``."""
    return (OP_READ, obj_id, n_elems, repeat, elem_off)


def write(obj_id: int, n_elems: int = 1, repeat: int = 1, elem_off: int = 0) -> Op:
    """WRITE op: ``repeat`` writes over ``n_elems`` elements from ``elem_off``."""
    return (OP_WRITE, obj_id, n_elems, repeat, elem_off)


def compute(ns: int) -> Op:
    """COMPUTE op: ``ns`` nanoseconds of pure CPU work."""
    return (OP_COMPUTE, ns)


def call(method: str, n_slots: int = 4, refs: Iterable[tuple[int, int]] = ()) -> Op:
    """CALL op: push a frame with ``n_slots`` slots, reference slots preset."""
    return (OP_CALL, method, n_slots, tuple(refs))


def ret() -> Op:
    """RET op: pop the top frame."""
    return (OP_RET,)


def setslot(slot: int, obj_id: int | None) -> Op:
    """SETSLOT op: store ``obj_id`` (or None) into a top-frame slot."""
    return (OP_SETSLOT, slot, obj_id)


def acquire(lock_id: int) -> Op:
    """ACQUIRE op: distributed lock acquire (interval boundary)."""
    return (OP_ACQUIRE, lock_id)


def release(lock_id: int) -> Op:
    """RELEASE op: distributed lock release (interval boundary)."""
    return (OP_RELEASE, lock_id)


def barrier(barrier_id: int) -> Op:
    """BARRIER op: global barrier (interval boundary)."""
    return (OP_BARRIER, barrier_id)


class ProgramBuilder:
    """Convenience builder for op lists, used by workloads and tests.

    Methods mirror the op constructors and return ``self`` for chaining;
    :meth:`ops` yields the accumulated list.
    """

    def __init__(self) -> None:
        self._ops: list[Op] = []

    def read(self, obj_id: int, n_elems: int = 1, repeat: int = 1, elem_off: int = 0) -> "ProgramBuilder":
        """READ op (see module-level :func:`read`)."""
        self._ops.append(read(obj_id, n_elems, repeat, elem_off))
        return self

    def write(self, obj_id: int, n_elems: int = 1, repeat: int = 1, elem_off: int = 0) -> "ProgramBuilder":
        """WRITE op (see module-level :func:`write`)."""
        self._ops.append(write(obj_id, n_elems, repeat, elem_off))
        return self

    def compute(self, ns: int) -> "ProgramBuilder":
        """COMPUTE op (see module-level :func:`compute`)."""
        self._ops.append(compute(ns))
        return self

    def call(self, method: str, n_slots: int = 4, refs: Iterable[tuple[int, int]] = ()) -> "ProgramBuilder":
        """CALL op (see module-level :func:`call`)."""
        self._ops.append(call(method, n_slots, refs))
        return self

    def ret(self) -> "ProgramBuilder":
        """RET op (see module-level :func:`ret`)."""
        self._ops.append(ret())
        return self

    def setslot(self, slot: int, obj_id: int | None) -> "ProgramBuilder":
        """SETSLOT op (see module-level :func:`setslot`)."""
        self._ops.append(setslot(slot, obj_id))
        return self

    def acquire(self, lock_id: int) -> "ProgramBuilder":
        """ACQUIRE op (see module-level :func:`acquire`)."""
        self._ops.append(acquire(lock_id))
        return self

    def release(self, lock_id: int) -> "ProgramBuilder":
        """RELEASE op (see module-level :func:`release`)."""
        self._ops.append(release(lock_id))
        return self

    def barrier(self, barrier_id: int) -> "ProgramBuilder":
        """BARRIER op (see module-level :func:`barrier`)."""
        self._ops.append(barrier(barrier_id))
        return self

    def extend(self, ops: Iterable[Op]) -> "ProgramBuilder":
        """Append a sequence of prebuilt ops."""
        self._ops.extend(ops)
        return self

    def ops(self) -> list[Op]:
        """The accumulated op list (a copy)."""
        return list(self._ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

