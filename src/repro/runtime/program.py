"""Thread programs: the op-stream format workloads compile to.

A thread program is the simulator's "bytecode": a stream of ops, each an
opcode and a few int fields.  Access ops are *aggregated*: one READ op
can stand for ``repeat`` accesses touching ``n_elems`` distinct elements
of an object, which keeps op streams tractable while preserving exactly
what the protocol and the profilers observe (object identity, access
counts, element coverage, interval structure, stack shape).

Segments and bodies
-------------------

A program is a sequence of *segments*: the ops between two
synchronization ops (ACQUIRE, RELEASE, BARRIER), each followed by the
sync op that ends it — all but the last, which runs to the program's
end.  A :class:`CompiledProgram` holds each distinct segment *body* (a
segment's ops without its sync op) once, and one small sequence with an
entry per segment: the body it runs, its trailing sync opcode and id,
and its *pc base* — the pc of its first op in the whole program.  A pc
is always global (base + offset into the body); an op's index in the
whole program is its ``pc``.  So a program whose rounds repeat a few
bodies (SOR's red/black sweeps) holds those bodies, not its rounds.

The bodies live in one *store*: parallel columns holding every body
once, each body a span of it, in order of first occurrence.  A store
emitted flat (every segment its own body, the sync ops in place between
them) is the whole program; :meth:`ColumnEmitter.repeat` adds a segment
that runs an emitted body again by reference.

Column layout
-------------

The store holds its ops as parallel columns, one entry per op.  Each
int column is a numpy array of the narrowest signed dtype that holds
its values; a field an opcode does not have reads 0.

==========  =============================================================
column      holds, per opcode
==========  =============================================================
codes       the opcode, one byte per op (``bytes``)
args        READ/WRITE object id, COMPUTE nanoseconds, SETSLOT slot,
            ACQUIRE/RELEASE lock id, BARRIER barrier id
n_elems     READ/WRITE elements touched, CALL slot count, SETSLOT
            object id
repeat      READ/WRITE repeat count
elem_off    READ/WRITE first element
==========  =============================================================

The side table holds what is not an int: the store position of every
CALL maps to ``(method, ((slot, obj_id), ...))``, and that of every
SETSLOT that clears its slot maps to None.  RET has no field.

Workloads emit the columns directly; :func:`compile_program` also takes
an iterable of op tuples — the form the op constructors below build and
``iter(program)`` decodes:

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

Access runs
-----------

:meth:`CompiledProgram.vector_runs` interns the program's maximal
READ/WRITE/COMPUTE spans by content: every occurrence of a body maps to
its row of the program's one lane table, which holds every row's
columns concatenated (ids, write lanes, sums), built in one numpy pass
on the vector engine's first execution.  A run's lane is slices of it.
Interning and the lane table read the store, so a run in a body that
repeats is one row however often its segment runs.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import deque
from itertools import compress
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from repro.util.arrays import ranges

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

#: tuple arity per opcode (the opcode included).
ARITY = {
    OP_READ: 5,
    OP_WRITE: 5,
    OP_COMPUTE: 2,
    OP_CALL: 4,
    OP_RET: 1,
    OP_SETSLOT: 3,
    OP_ACQUIRE: 2,
    OP_RELEASE: 2,
    OP_BARRIER: 2,
}

Op = tuple

#: shortest READ/WRITE/COMPUTE span worth replaying in bulk — below this
#: the vector engine's fixed per-run overhead beats the scalar loop.
MIN_VECTOR_RUN = 6

#: maximal spans of access-stream opcodes (READ=0, WRITE=1, COMPUTE=2)
#: found at C speed over the dense opcode array.
_ACCESS_RUN_RE = re.compile(rb"[\x00-\x02]+")

#: every valid opcode byte: ``codes.translate(None, _OPCODES)`` deletes
#: them at C speed and leaves only the out-of-range ones.
_OPCODES = bytes(range(OP_BARRIER + 1))

#: opcode -> selector byte translation table over a run's opcode bytes
#: (READ=0, WRITE=1, COMPUTE=2) that selects its compute ops.
_COMPUTE_MASK = bytes.maketrans(b"\x00\x01\x02", b"\x00\x00\x01")
_OPCODE = itemgetter(0)

#: signed dtypes from narrowest to widest.
_INT_DTYPES = tuple(np.iinfo(t) for t in (np.int8, np.int16, np.int32, np.int64))


def int_column(values) -> np.ndarray:
    """``values`` (an int array or sequence) as a contiguous array of the
    narrowest signed dtype that holds them."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iub":
        if arr.size:
            raise ValueError(f"column of dtype {arr.dtype} is not an int column")
        arr = arr.astype(np.int8)
    lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
    for info in _INT_DTYPES:
        if info.min <= lo and hi <= info.max:
            return np.ascontiguousarray(arr, dtype=info.dtype)
    raise ValueError(f"column values {lo}..{hi} do not fit in int64")


def bad_opcode_pc(codes: bytes) -> int | None:
    """The pc of the first opcode outside ``OP_READ..OP_BARRIER`` in a
    dense opcode array, or None — found at C speed either way: the first
    byte left after deleting the valid ones is the first bad opcode."""
    bad = codes.translate(None, _OPCODES)
    return codes.index(bad[0]) if bad else None


class _LaneTable:
    """The columns of a program's distinct access runs, built in one
    numpy pass over all of them: what a lane is sliced from.

    Row ``k`` is the ``k``-th distinct run body in store order
    (:meth:`CompiledProgram.vector_runs` numbers them while interning),
    ``starts`` holds each row's first occurrence (a store position) and
    ``lengths`` its op count.  Access ops of all rows are concatenated:
    ``acc_idx[bounds[k]:bounds[k + 1]]`` are row ``k``'s object ids in
    op order, in the program's own narrow int dtype (a lane's is a view,
    which the engine's probe gathers copy states with; an ``intp`` copy
    would cost 8 bytes per access), :meth:`ids` the same as a list and
    ``acc_rel`` their op offsets in the run.  The ids keep their
    repeats: probing a copy and booking a first touch are idempotent, so
    the engine dedupes only where it hands ids on.

    The write lanes are concatenated the same way:
    ``w_ids[w_bounds[k]:w_bounds[k + 1]]`` are the objects row ``k``
    writes, each once in first-write order, parallel to ``w_idx`` (the
    same ids as an ``intp`` array), ``w_elems`` (summed written
    elements), ``w_ops`` (write ops) and ``w_rel`` (first write's op
    offset in the run).  The ids handed out as lists are the int
    objects of ``ints`` where it covers them — the heap's own ``obj_id``
    objects, so the protocol's dicts and sets find an id by identity
    rather than by comparing.

    ``rep_sum`` is each row's summed access repeats, ``compute_sum`` its
    summed compute nanoseconds and ``raw`` whether it has no negative
    compute (then a unity cost scale charges the sum as it stands).
    Those are cost-independent; the per-op static costs of a walk
    (:meth:`static`) are kept for the last cost model asked.  A table
    holds ints and int arrays only: it outlives the DJVM it was built in
    without keeping its heaps alive.
    """

    __slots__ = (
        "starts",
        "lengths",
        "offsets",
        "bounds",
        "acc_idx",
        "acc_rel",
        "w_bounds",
        "w_ids",
        "w_idx",
        "w_elems",
        "w_ops",
        "w_rel",
        "rep_sum",
        "compute_sum",
        "raw",
        "_ints",
        "_ids",
        "_static_key",
        "_static",
    )

    def __init__(self, program: "CompiledProgram", ints: np.ndarray | None) -> None:
        _, starts, lengths = program._interned()
        self.starts = starts
        self.lengths = lengths
        #: each row's first op in the concatenation of all rows' ops.
        self.offsets = (np.cumsum(lengths, dtype=np.int64) - lengths).tolist()
        n_rows = len(starts)
        pos = self._positions()
        codes = np.frombuffer(program._codes, dtype=np.uint8)[pos]
        row_of = np.repeat(np.arange(n_rows), lengths)
        access = codes <= OP_WRITE
        acc_pos = pos[access]
        acc_row = row_of[access]
        bounds = _bounds(acc_row, n_rows)
        self.bounds = bounds.tolist()
        acc_idx = self.acc_idx = program._args[acc_pos]
        if not (ints is not None and acc_idx.size and 0 <= acc_idx.min() and acc_idx.max() < len(ints)):
            ints = None
        self._ints = ints
        self._ids: list | None = None
        acc_rel = acc_pos - np.array(starts, dtype=np.int64)[acc_row]
        self.acc_rel = int_column(acc_rel)
        self.rep_sum = _segment_sums(program._repeat[acc_pos], bounds)
        compute = codes == OP_COMPUTE
        values = program._args[pos[compute]]
        compute_bounds = _bounds(row_of[compute], n_rows)
        self.compute_sum = _segment_sums(values, compute_bounds)
        self.raw = [n == 0 for n in _segment_sums(values < 0, compute_bounds)]
        # Write lanes: group the write accesses by (row, object) — a
        # stable sort keeps each group's ops in op order — then put the
        # groups in first-write order, which keeps rows ascending.
        writes = np.flatnonzero(codes[access] == OP_WRITE)
        order = writes[np.lexsort((acc_idx[writes], acc_row[writes]))]
        new = np.ones(order.size, dtype=bool)
        new[1:] = (acc_row[order[1:]] != acc_row[order[:-1]]) | (acc_idx[order[1:]] != acc_idx[order[:-1]])
        edges = np.append(np.flatnonzero(new), order.size)
        lo, hi = edges[:-1], edges[1:]
        first = order[lo]
        lane = np.argsort(first)
        elems = np.concatenate(([0], np.cumsum(_exact(program._n_elems[acc_pos[order]]))))
        first = first[lane]
        self.w_bounds = _bounds(acc_row[first], n_rows).tolist()
        self.w_ids = self._canonical(acc_idx[first]).tolist()
        self.w_idx = acc_idx[first].astype(np.intp)
        self.w_elems = (elems[hi] - elems[lo])[lane].tolist()
        self.w_ops = (hi - lo)[lane].tolist()
        self.w_rel = acc_rel[first].tolist()
        self._static_key = None
        self._static: np.ndarray | None = None

    def _canonical(self, idx: np.ndarray) -> np.ndarray:
        """``idx`` as the canonical int objects, where there are some."""
        return idx if self._ints is None else self._ints[idx]

    def ids(self, k: int) -> list:
        """Row ``k``'s access ids in op order, as a list: a slice of one
        list of every row's, built on first use — a program whose runs
        nothing observes and nothing walks never builds it."""
        ids = self._ids
        if ids is None:
            ids = self._ids = self._canonical(self.acc_idx).tolist()
        return ids[self.bounds[k] : self.bounds[k + 1]]

    def _positions(self) -> np.ndarray:
        """The store position of every op of every row, rows in order."""
        return ranges(np.array(self.starts, dtype=np.int64), np.array(self.lengths, dtype=np.int64))

    def static(self, program: "CompiledProgram", costs) -> np.ndarray:
        """Every row's per-op static cost under ``costs``, rows
        concatenated: an access's repeat x busy time, a compute's
        nanoseconds on a unity scale (0 otherwise: the walk charges
        those op by op, as it does a row that is not ``raw``)."""
        key = self._static_key
        if key is not costs and key != costs:
            pos = self._positions()
            busy = costs.state_check_ns + costs.access_ns
            steps = _exact(program._repeat[pos], busy) * busy
            compute = np.frombuffer(program._codes, dtype=np.uint8)[pos] == OP_COMPUTE
            steps[compute] = program._args[pos[compute]] if costs.compute_scale == 1.0 else 0
            self._static_key = costs
            self._static = steps
        return self._static

    def totals(self, program: "CompiledProgram", k: int, costs) -> tuple[int, int]:
        """Row ``k``'s access busy and compute nanoseconds under
        ``costs``: its summed repeats times the busy time of one access,
        and its compute summed exactly as the scalar loop charges it op
        by op — the raw values on a unity scale when none is negative,
        else :meth:`~repro.sim.costs.CostModel.scaled_compute` per op."""
        busy = (costs.state_check_ns + costs.access_ns) * self.rep_sum[k]
        if self.raw[k] and costs.compute_scale == 1.0:
            return busy, self.compute_sum[k]
        s = self.starts[k]
        e = s + self.lengths[k]
        return busy, sum(_compute_charges(program, s, e, program._codes[s:e], costs))

    def walk(self, program: "CompiledProgram", k: int, costs, ids: list) -> tuple[list, list, dict, dict]:
        """Row ``k``'s walk columns, given its access ids ``ids`` (its
        :meth:`ids`): ``(static cost of each op, access op
        indices, {written object: first write op}, {accessed object:
        first access op})``, which give each clock stop the clock the
        scalar loop would show.  An op's static cost is its access busy
        time or its compute, charged as the scalar loop charges it op by
        op."""
        s = self.starts[k]
        n = self.lengths[k]
        at = self.offsets[k]
        steps = self.static(program, costs)[at : at + n].tolist()
        codes = program._codes[s : s + n]
        if OP_COMPUTE in codes and not (self.raw[k] and costs.compute_scale == 1.0):
            charges = _compute_charges(program, s, s + n, codes, costs)
            deque(map(steps.__setitem__, compress(range(n), codes.translate(_COMPUTE_MASK)), charges), 0)
        acc_ops = self.acc_rel[self.bounds[k] : self.bounds[k + 1]].tolist()
        # Reversed, the last value kept per object is its first access op.
        first_op = dict(zip(reversed(ids), reversed(acc_ops)))
        a, b = self.w_bounds[k], self.w_bounds[k + 1]
        return steps, acc_ops, dict(zip(self.w_ids[a:b], self.w_rel[a:b])), first_op


def _bounds(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Segment bounds (``n_rows + 1``) of the non-decreasing row labels
    ``rows``."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))


def _exact(values: np.ndarray, scale: int = 1) -> np.ndarray:
    """``values`` as int64, or as Python ints where ``scale`` times a sum
    of them could wrap int64 (the scalar loop's arithmetic never does)."""
    if values.size:
        peak = max(-int(values.min()), int(values.max()))
        if peak * scale * values.size >= 1 << 63:
            return values.astype(object)
    return values.astype(np.int64)


def _segment_sums(values: np.ndarray, bounds: np.ndarray) -> list[int]:
    """Exact int sums of ``values`` over each segment of ``bounds``."""
    total = np.concatenate(([0], np.cumsum(_exact(values))))
    return (total[bounds[1:]] - total[bounds[:-1]]).tolist()


def _compute_charges(program: "CompiledProgram", s: int, e: int, codes: bytes, costs) -> list:
    """The compute ops of store ops ``[s, e)`` charged op by op through
    :meth:`~repro.sim.costs.CostModel.scaled_compute` (which rejects a
    negative one), as the scalar loop charges them off a unity scale."""
    values = compress(program._views[0][s:e], codes.translate(_COMPUTE_MASK))
    return list(map(costs.scaled_compute, values))


#: the sequence's sync opcode of a segment that runs to the program's end.
NO_SYNC = -1


class CompiledProgram:
    """A thread program as a store of distinct segment bodies and a
    sequence of segments: the dense form the interpreter runs.

    The store is the opcode bytes, four int columns and the side table
    of the module docstring, indexed by store position.  Body ``b`` is
    the store span ``[body_lo[b], body_hi[b])``; bodies are the store
    split at its sync ops, so a store sync op ends a body but is not part
    of one.  Segment ``s`` runs body ``seg_body[s]`` from pc
    ``seg_base[s]`` and then its sync op ``seg_code[s]`` with id
    ``seg_arg[s]`` (:data:`NO_SYNC` for the last segment, which ends the
    program).  The scalar loop indexes the store per op, the vector
    engine reads a run's slices of it, and segment resumption after a
    synchronization yield is the thread's global ``pc``.  Iterating a
    program decodes its ops as tuples.

    ``repeats`` (what :meth:`ColumnEmitter.repeat` records) adds the
    segments that run a body again: ``(at, body, code, ident)`` inserts,
    right after the store's sync op at ``at - 1``, a segment running
    body ``body`` — one already emitted — ended by sync op ``code`` with
    id ``ident``.
    """

    __slots__ = (
        "_codes",
        "_args",
        "_n_elems",
        "_repeat",
        "_elem_off",
        "_side",
        "body_lo",
        "body_hi",
        "seg_body",
        "seg_code",
        "seg_arg",
        "seg_base",
        "n_ops",
        "_views",
        "_lists",
        "_vruns",
        "_lanes",
        "_verified",
    )

    def __init__(self, codes: bytes, args, n_elems, repeat, elem_off, side: dict | None = None, repeats=()) -> None:
        codes = bytes(codes)
        i = bad_opcode_pc(codes)
        if i is not None:
            raise ValueError(f"op {i}: unknown opcode {codes[i]!r}")
        columns = tuple(map(int_column, (args, n_elems, repeat, elem_off)))
        n = len(codes)
        if any(len(col) != n for col in columns):
            raise ValueError(f"columns of {[len(col) for col in columns]} ops for {n} opcodes")
        side = {} if side is None else side
        calls = codes.count(OP_CALL)
        if sum(codes[pc] == OP_CALL for pc in side) != calls:
            raise ValueError(f"the side table must hold every CALL's method and refs ({calls} CALLs)")
        #: the store's opcodes (one byte per op).
        self._codes = codes
        self._args, self._n_elems, self._repeat, self._elem_off = columns
        #: store position -> (method, refs) of each CALL, -> None of each
        #: SETSLOT that clears its slot.
        self._side = side
        #: the int columns as memoryviews: indexing and iterating one
        #: yields Python ints.
        self._views = tuple(map(memoryview, columns))
        # The sync opcodes (ACQUIRE, RELEASE, BARRIER) end the bodies.
        code_np = np.frombuffer(codes, dtype=np.uint8)
        syncs = np.flatnonzero((code_np >= OP_ACQUIRE) & (code_np <= OP_BARRIER)).tolist()
        self.body_lo = [0, *(pc + 1 for pc in syncs)]
        self.body_hi = [*syncs, n]
        self._sequence(syncs, list(repeats))
        #: the int columns as lists, decoded on first use (see :meth:`lists`).
        self._lists: tuple[list, list, list, list] | None = None
        self._vruns: tuple[dict[int, tuple[int, int]], list[int], list[int]] | None = None
        self._lanes: _LaneTable | None = None
        #: set by the staticflow IR verifier's structural gate after the
        #: program passes, so reuse across DJVM instances (the bench
        #: harness pattern) verifies once.
        self._verified = False

    def _sequence(self, syncs: list[int], repeats: list) -> None:
        """One segment per stored body, each repeat after the stored
        body whose sync op it follows; sets the sequence and ``n_ops``."""
        seg_body: list[int] = []
        seg_code: list[int] = []
        seg_arg: list[int] = []
        seg_base: list[int] = []
        args = self._views[0]
        lo, hi = self.body_lo, self.body_hi
        pc = 0
        r = 0
        for b, end in enumerate(hi):
            stored = b < len(syncs)
            seg_body.append(b)
            seg_code.append(self._codes[end] if stored else NO_SYNC)
            seg_arg.append(args[end] if stored else 0)
            seg_base.append(pc)
            pc += end - lo[b] + stored
            while r < len(repeats) and repeats[r][0] == end + 1 and stored:
                _, body, code, ident = repeats[r]
                if not 0 <= body <= b:
                    raise ValueError(f"segment {len(seg_body)}: body {body} is not emitted before it")
                if code not in (OP_ACQUIRE, OP_RELEASE, OP_BARRIER):
                    raise ValueError(f"segment {len(seg_body)}: opcode {code!r} is not a sync op")
                seg_body.append(body)
                seg_code.append(code)
                seg_arg.append(ident)
                seg_base.append(pc)
                pc += hi[body] - lo[body] + 1
                r += 1
        if r < len(repeats):
            raise ValueError(f"repeat at store position {repeats[r][0]} does not follow a sync op")
        self.seg_body = seg_body
        self.seg_code = seg_code
        self.seg_arg = seg_arg
        self.seg_base = seg_base
        self.n_ops = pc

    def __len__(self) -> int:
        return self.n_ops

    def __iter__(self) -> Iterator[Op]:
        return self.decode(0, self.n_ops)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompiledProgram):
            return NotImplemented
        return self.n_ops == other.n_ops and list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def _columns(self) -> tuple:
        return self._args, self._n_elems, self._repeat, self._elem_off

    @property
    def codes(self) -> bytes:
        """The whole program's opcodes, one byte per op, assembled from
        the bodies and the sequence on each read: for inspection, never
        read by a run."""
        store, lo, hi = self._codes, self.body_lo, self.body_hi
        parts = []
        for b, code in zip(self.seg_body, self.seg_code):
            parts.append(store[lo[b] : hi[b]])
            if code != NO_SYNC:
                parts.append(bytes((code,)))
        return b"".join(parts)

    def lists(self) -> tuple[list, list, list, list]:
        """The store's four int columns decoded to lists once and kept:
        what the scalar loop indexes per op when no run of the segment
        takes the one pass (a list index is cheaper than a
        memoryview's).  A program that only runs on the one pass never
        builds them."""
        if self._lists is None:
            self._lists = tuple(col.tolist() for col in self._columns())
        return self._lists

    def segment_at(self, pc: int) -> int:
        """The segment holding pc ``pc`` (its body or its sync op)."""
        return bisect_right(self.seg_base, pc) - 1

    def decode(self, lo: int, hi: int) -> Iterator[Op]:
        """The ops at pcs ``[lo, hi)`` as tuples, in the form the op
        constructors build (fields as Python ints)."""
        bases = self.seg_base
        s = max(self.segment_at(lo), 0)
        while s < len(bases) and bases[s] < hi:
            base = bases[s]
            b = self.seg_body[s]
            start = self.body_lo[b]
            sync = base + self.body_hi[b] - start
            a, e = max(lo, base), min(hi, sync)
            if a < e:
                yield from self._decode_store(start + a - base, start + e - base)
            code = self.seg_code[s]
            if code != NO_SYNC and lo <= sync < hi:
                yield (code, self.seg_arg[s])
            s += 1

    def _decode_store(self, lo: int, hi: int) -> Iterator[Op]:
        """The store's ops at ``[lo, hi)`` as tuples."""
        args, elems, reps, offs = (col[lo:hi].tolist() for col in self._columns())
        side = self._side
        for k, code in enumerate(self._codes[lo:hi]):
            if code <= OP_WRITE:
                yield (code, args[k], elems[k], reps[k], offs[k])
            elif code == OP_CALL:
                method, refs = side[lo + k]
                yield (code, method, elems[k], refs)
            elif code == OP_RET:
                yield (code,)
            elif code == OP_SETSLOT:
                yield (code, args[k], None if lo + k in side else elems[k])
            else:
                yield (code, args[k])

    def op(self, pc: int) -> Op:
        """The op at ``pc`` as a tuple."""
        return next(self.decode(pc, pc + 1))

    def vector_runs(self) -> dict[int, tuple[int, int]]:
        """The program's vectorizable access runs: ``{start_pc: (row,
        n_ops)}`` for every maximal READ/WRITE/COMPUTE span of at least
        :data:`MIN_VECTOR_RUN` ops, where ``row`` numbers the distinct
        bodies in order of first occurrence — the span's row of the lane
        table.  Derived on each call from the store's run index
        (:meth:`store_runs`) and the sequence.

        Interning is by content — the span's opcode bytes and the bytes
        of its slice of every int column — in a table that lives only
        for the scan.  Spans are bucketed by a cheap key (their opcode
        bytes and their first, middle and last object or argument), and
        a bucket's bodies are told apart by comparing the column bytes,
        which hashes nothing more.
        """
        lo = self.body_lo
        by_body: list[list] = [[] for _ in lo]
        for start, run in sorted(self.store_runs().items()):
            b = bisect_right(lo, start) - 1
            by_body[b].append((start - lo[b], run))
        return {
            base + off: run
            for base, b in zip(self.seg_base, self.seg_body)
            for off, run in by_body[b]
        }

    def store_runs(self) -> dict[int, tuple[int, int]]:
        """:meth:`vector_runs` keyed by store position: each body's run
        index, what the interpreter looks a run up in."""
        return self._interned()[0]

    def _interned(self) -> tuple[dict[int, tuple[int, int]], list[int], list[int]]:
        """``(store_runs(), each row's first occurrence, each row's op
        count)``, computed once over the store."""
        if self._vruns is None:
            runs: dict[int, tuple[int, int]] = {}
            starts: list[int] = []
            lengths: list[int] = []
            buckets: dict[tuple, list[int]] = {}
            bodies: dict[int, list[bytes]] = {}
            codes = self._codes
            views = self._views
            args = views[0]

            def same(row: int, s: int, e: int) -> bool:
                # A row's column bytes are taken only once a second span
                # shares its bucket: most buckets hold one span.
                other = bodies.get(row)
                if other is None:
                    t = starts[row]
                    other = bodies[row] = [view[t : t + e - s].tobytes() for view in views]
                return other == [view[s:e].tobytes() for view in views]

            for m in _ACCESS_RUN_RE.finditer(codes):
                s, e = m.span()
                if e - s >= MIN_VECTOR_RUN:
                    key = (codes[s:e], args[s], args[(s + e) // 2], args[e - 1])
                    rows = buckets.setdefault(key, [])
                    for row in rows:
                        if same(row, s, e):
                            break
                    else:
                        row = len(starts)
                        rows.append(row)
                        starts.append(s)
                        lengths.append(e - s)
                    runs[s] = (row, e - s)
            self._vruns = (runs, starts, lengths)
        return self._vruns

    def _lane_table(self, ints: np.ndarray | None = None) -> _LaneTable:
        """The program's lane table, built on first use with ``ints``
        (the heap's ``obj_id`` objects by id, which canonicalize the
        ids it hands out)."""
        if self._lanes is None:
            self._lanes = _LaneTable(self, ints)
        return self._lanes

    def sync_points(self) -> list[tuple[int, int]]:
        """``(pc, opcode)`` of every ACQUIRE/RELEASE/BARRIER op, in
        program order — the segment boundaries the static CFG builder
        splits at, read off the sequence."""
        lo, hi = self.body_lo, self.body_hi
        return [
            (base + hi[b] - lo[b], code)
            for base, b, code in zip(self.seg_base, self.seg_body, self.seg_code)
            if code != NO_SYNC
        ]


class ColumnEmitter:
    """Builds a :class:`CompiledProgram` from chunks of columns: what
    workloads emit instead of op tuples.

    :meth:`ops` appends a chunk of ops — their opcodes and each int
    column, an array or sequence as long as the opcodes or one value
    for all of them — and :meth:`call` one CALL with its side-table
    entry; :meth:`repeat` appends a segment that runs an emitted body
    again, held once; :meth:`program` concatenates the chunks once.
    Side-table keys are store positions (``n_ops`` is the position of
    the next op; the pc too while nothing has been repeated).
    """

    __slots__ = ("_chunks", "n_ops", "side", "_repeats")

    def __init__(self) -> None:
        self._chunks: tuple[list, ...] = ([], [], [], [], [])
        #: ops in the chunks (the store position of the next op).
        self.n_ops = 0
        self.side: dict[int, tuple | None] = {}
        #: ``(store position, body, code, ident)`` of each repeat.
        self._repeats: list[tuple[int, int, int, int]] = []

    def ops(self, codes, args=0, n_elems=0, repeat=0, elem_off=0) -> None:
        """Append ops with these opcodes and fields."""
        codes = np.asarray(codes, dtype=np.uint8)
        n = len(codes)
        self._chunks[0].append(codes)
        for chunk, col in zip(self._chunks[1:], (args, n_elems, repeat, elem_off)):
            chunk.append(np.full(n, col, dtype=np.int64) if np.ndim(col) == 0 else np.asarray(col, dtype=np.int64))
        self.n_ops += n

    def call(self, method: str, n_slots: int, refs: tuple) -> None:
        """Append a CALL of ``method`` with ``n_slots`` slots, ``refs``
        preset."""
        self.side[self.n_ops] = (method, refs)
        self.ops((OP_CALL,), n_elems=n_slots)

    def repeat(self, body: int, code: int, ident: int) -> None:
        """Append a segment that runs body ``body`` again — the ops
        emitted between the ``body``-th sync op and the one before it —
        ended by sync op ``code`` with id ``ident``.  Only right after a
        sync op (or another repeat): a segment starts there, which
        :meth:`program` checks.  The body is held once however often it
        repeats."""
        self._repeats.append((self.n_ops, body, code, ident))

    def program(self) -> CompiledProgram:
        """The program of every op emitted so far."""
        codes, *columns = (np.concatenate(chunk) if chunk else np.zeros(0, np.int8) for chunk in self._chunks)
        return CompiledProgram(codes.tobytes(), *columns, dict(sorted(self.side.items())), self._repeats)


def _is_int64(value) -> bool:
    return isinstance(value, (int, np.integer)) and -(1 << 63) <= value < (1 << 63)


def _encode(ops: Iterable[Op]) -> CompiledProgram:
    """Columns and side table of an op-tuple stream.  A non-int opcode
    raises ``TypeError`` and one outside ``OP_READ..OP_BARRIER`` a
    ``ValueError``, as does an op of the wrong arity or a field that is
    not an int; each names the op's pc."""
    ops = ops if isinstance(ops, (list, tuple)) else list(ops)
    # bytes() rejects non-ints and codes outside 0..255; bad_opcode_pc
    # catches anything past the opcode range.
    codes = bytes(map(_OPCODE, ops))
    i = bad_opcode_pc(codes)
    if i is not None:
        raise ValueError(f"op {i}: unknown opcode {codes[i]!r}")
    n = len(ops)
    columns = ([0] * n, [0] * n, [0] * n, [0] * n)
    side: dict[int, tuple | None] = {}
    for pc, op in enumerate(ops):
        code = op[0]
        if len(op) != ARITY[code]:
            raise ValueError(
                f"op {pc}: {OPCODE_NAMES[code]} has {len(op)} fields, expected {ARITY[code]}"
            )
        if code == OP_CALL:
            side[pc] = (op[1], op[3])
            columns[1][pc] = op[2]
        elif code == OP_SETSLOT and op[2] is None:
            side[pc] = None
            columns[0][pc] = op[1]
        else:
            for col, value in zip(columns, op[1:]):
                col[pc] = value
    arrays = []
    for col in columns:
        try:
            arr = np.array(col)
        except (OverflowError, TypeError, ValueError):
            arr = None
        if arr is None or (arr.size and arr.dtype.kind not in "ib"):
            pc = next(pc for pc, v in enumerate(col) if not _is_int64(v))
            raise ValueError(f"op {pc}: {OPCODE_NAMES[codes[pc]]} field {col[pc]!r} is not an int64")
        arrays.append(arr)
    return CompiledProgram(codes, *arrays, side)


def compile_program(ops: Iterable[Op]) -> CompiledProgram:
    """A program as columns: a :class:`CompiledProgram` as it is, an
    iterable of op tuples encoded."""
    if isinstance(ops, CompiledProgram):
        return ops
    return _encode(ops)


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

