"""The write-notice path against a reference fold.

Randomized data-race-free programs (lock pairs, barriers, repeated and
revisited bodies) run on both replay routes while a close hook re-homes
objects between body executions.  At every notice application the
copies the engine invalidates must be exactly the ones a plain walk of
the unseen notices, in log order, invalidates: a ``VALID`` copy whose
fetched version is below a notice's version.  At every sync point each
node's cached index must equal its non-``HOME`` records, and the log
must stay what the engine's apply relies on: ascending blocks, one
notice per version bump.

Beside it runs a reference GOS (:class:`ReferenceGOS`): one version
history per object, advanced by each closing interval's writes as the
program states them, with no caches, twins or diffs.  On data-race-free
programs every read must see the version that history holds.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.homemigration import HomeMigrationEngine
from repro.dsm.states import RealState
from repro.runtime import program as P
from tests.runtime.test_vector_replay import (
    HOOK_CONFIGS,
    build_djvm,
    compile_hot,
    random_programs,
    repeating_programs,
    revisiting_programs,
)

MAKERS = {
    "random": random_programs,
    "repeating": repeating_programs,
    "revisiting": revisiting_programs,
}


def check_cached_index(hlrc) -> None:
    for node_id, heap in hlrc.heaps.items():
        expected = {oid for oid, r in heap.copies.items() if r.real_state is not RealState.HOME}
        assert heap.cached == expected, f"node {node_id}: cached index out of step"


class Rehome:
    """A planned hook that re-homes objects at chosen interval closes
    (as a home-migration policy does), checking the cached index at
    every close."""

    def __init__(self, hlrc, moves: dict[int, tuple[int, int]]) -> None:
        self.hlrc = hlrc
        self.engine = HomeMigrationEngine(hlrc)
        self.moves = moves
        self.closes = 0
        #: ids re-homed so far, in order (a re-homing publishes a notice).
        self.rehomed: list[int] = []

    def on_interval_open(self, thread) -> None:
        pass

    def on_access(self, thread, obj, **kwargs) -> None:
        pass

    def fast_on_access(self, thread, ids, faulted):
        return None

    def on_interval_close(self, thread, interval, sync_dst) -> None:
        check_cached_index(self.hlrc)
        self.closes += 1
        move = self.moves.get(self.closes)
        if move is not None:
            obj_id, node = move
            obj = self.hlrc.gos.get(obj_id)
            if obj.home_node != node:
                self.rehomed.append(obj_id)
            self.engine.migrate_home(obj, node)
            check_cached_index(self.hlrc)


def notices(hlrc):
    """The log as ``(obj_id, version)`` in ordinal order."""
    return [n for ids, versions in hlrc.notice_blocks for n in zip(ids, versions)]


def checked_apply(hlrc):
    """Wrap the engine's apply: compare its invalidations with the
    reference fold over the same unseen notices."""
    real_apply = hlrc.apply_notices
    applies = []

    def apply(thread):
        check_cached_index(hlrc)
        copies = hlrc.heaps[thread.node_id].copies
        start = hlrc._notice_seen[thread.node_id]
        before = {oid: (r.real_state, r.fetched_version) for oid, r in copies.items()}
        valid = {oid for oid, (state, _) in before.items() if state is RealState.VALID}
        expected = set()
        for obj_id, version in notices(hlrc)[start:]:
            if obj_id in valid and before[obj_id][1] < version:
                valid.discard(obj_id)
                expected.add(obj_id)
        n_new = real_apply(thread)
        assert n_new == hlrc.n_notices - start
        for obj_id in expected:
            before[obj_id] = (RealState.INVALID, before[obj_id][1])
        assert {oid: (r.real_state, r.fetched_version) for oid, r in copies.items()} == before
        applies.append(len(expected))
        return n_new

    hlrc.apply_notices = apply
    return applies


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    maker=st.sampled_from(sorted(MAKERS)),
    replay=st.sampled_from(["scalar", "vector"]),
    homes=st.sampled_from(["cyclic", "block"]),
    moves=st.dictionaries(
        st.integers(1, 40), st.tuples(st.integers(0, 31), st.integers(0, 3)), max_size=6
    ),
)
def test_notice_application_matches_the_reference_fold(seed, maker, replay, homes, moves):
    djvm, obj_ids = build_djvm(replay=replay, homes=homes)
    hlrc = djvm.hlrc
    hook = Rehome(hlrc, {k: (obj_ids[i], node) for k, (i, node) in moves.items()})
    djvm.add_hook(hook)
    applies = checked_apply(hlrc)
    djvm.run(compile_hot(MAKERS[maker](seed, obj_ids)))
    check_cached_index(hlrc)
    assert applies and hook.closes
    # Every block is ascending and distinct, and every version bump has
    # its notice: an object's versions are 1, 2, ... in log order.
    for ids, versions in hlrc.notice_blocks:
        assert ids == sorted(set(ids)) and len(versions) == len(ids)
    seen: Counter = Counter()
    for obj_id, version in notices(hlrc):
        seen[obj_id] += 1
        assert version == seen[obj_id]
    for obj in hlrc.gos:
        assert obj.home_version == seen[obj.obj_id]


# -- the reference GOS: values -------------------------------------------
#
# HLRC lets a read see a cache copy fetched at some earlier fault.  On a
# data-race-free program the read must see the latest version of the
# object: any write not ordered before the read by synchronization would
# race with it.  Nothing changes a copy inside an interval (notices apply
# only at sync points), so checking each read's copy when its interval
# closes checks the read, on both replay routes.

_SYNC = (P.OP_ACQUIRE, P.OP_RELEASE, P.OP_BARRIER)
_ACCESS = (P.OP_READ, P.OP_WRITE)
#: the lock every access span outside a lock pair runs under.
SPAN_LOCK = 2


def race_free(programs: dict[int, list], obj_ids: list[int]) -> dict[int, list]:
    """``programs`` made data-race free with their bodies kept, so a
    body that repeats still repeats: lock ``l``'s pairs (l = 0, 1) guard
    ``obj_ids[l]`` alone — every access inside one goes there, every
    access outside one goes elsewhere — and every access span between
    sync points runs under :data:`SPAN_LOCK`.  The outer CALL/RET stay
    outside the lock pairs."""
    guarded = {0: obj_ids[0], 1: obj_ids[1]}
    elsewhere = {obj_ids[0]: obj_ids[2], obj_ids[1]: obj_ids[3]}
    out = {}
    for tid, ops in programs.items():
        head, *body, tail = ops
        new = [head]
        span: list = []
        held = None

        def flush() -> None:
            if any(op[0] in _ACCESS for op in span):
                new.extend([P.acquire(SPAN_LOCK), *span, P.release(SPAN_LOCK)])
            else:
                new.extend(span)
            span.clear()

        for op in body:
            code = op[0]
            if code in _SYNC:
                flush()
                held = op[1] if code == P.OP_ACQUIRE else None
                new.append(op)
            elif held is not None:
                new.append((code, guarded[held], *op[2:]) if code in _ACCESS else op)
            else:
                if code in _ACCESS:
                    op = (code, elsewhere.get(op[1], op[1]), *op[2:])
                span.append(op)
        flush()
        new.append(tail)
        out[tid] = new
    return out


def program_intervals(ops: list) -> list[tuple[set[int], set[int]]]:
    """(objects read, objects written) of each interval of one thread's
    program, in order: a sync op closes one, and so does the end."""
    intervals = [(set(), set())]
    for op in ops:
        if op[0] in _SYNC:
            intervals.append((set(), set()))
        elif op[0] in _ACCESS:
            intervals[-1][op[0]].add(op[1])
    return intervals


class ReferenceGOS:
    """Sequential consistency at sync points: each object's history
    holds, per version, the (thread, interval) close that wrote it, in
    close order.  A re-homing publishes a version with the data of the
    one before, so it repeats that writer (None: the initial value).
    What each interval reads and writes comes from the program, not from
    the engine."""

    def __init__(self, programs: dict[int, list]) -> None:
        self.intervals = {tid: program_intervals(ops) for tid, ops in programs.items()}
        self.history: dict[int, list[tuple[int, int]]] = {}
        self.closed: Counter = Counter()
        self.reads_checked = 0

    def version(self, obj_id: int) -> int:
        return len(self.history.get(obj_id, ()))

    def writer(self, obj_id: int, version: int) -> tuple[int, int] | None:
        """Who wrote what a read of ``version`` sees."""
        return self.history[obj_id][version - 1] if version else None

    def reads(self, tid: int) -> set[int]:
        return self.intervals[tid][self.closed[tid]][P.OP_READ]

    def close(self, tid: int, rehomed=()) -> None:
        """``tid`` closed its next interval, whose close hooks re-homed
        ``rehomed``."""
        k = self.closed[tid]
        for obj_id in sorted(self.intervals[tid][k][P.OP_WRITE]):
            self.history.setdefault(obj_id, []).append((tid, k))
        for obj_id in rehomed:
            writer = self.writer(obj_id, self.version(obj_id))
            self.history.setdefault(obj_id, []).append(writer)
        self.closed[tid] += 1


def version_seen(hlrc, node_id: int, obj_id: int) -> int:
    """The version a read on ``node_id`` sees: the home's for a home copy
    (always current), the fetched one for a cache copy."""
    record = hlrc.heaps[node_id].copies.get(obj_id)
    assert record is not None and record.real_state is not RealState.INVALID, (
        f"object {obj_id} read on node {node_id} without a valid copy"
    )
    if record.real_state is RealState.HOME:
        return hlrc.gos.get(obj_id).home_version
    return record.fetched_version


def checked_sync(hlrc, reference: ReferenceGOS, rehome: Rehome) -> None:
    """Wrap the engine's close and notice application.  Before a close,
    every object the closing interval read must show, on the thread's
    node, a version by the writer of the reference's latest; after it,
    the reference takes the interval's writes and the re-homings its
    close made.  After an application, every valid cache copy on the
    node — what any read there would see — must do the same."""
    real_close = hlrc.close_interval
    real_apply = hlrc.apply_notices

    def check(thread, obj_ids, what: str) -> None:
        for obj_id in obj_ids:
            seen = reference.writer(obj_id, version_seen(hlrc, thread.node_id, obj_id))
            expected = reference.writer(obj_id, reference.version(obj_id))
            assert seen == expected, (
                f"thread {thread.thread_id} {what} object {obj_id} as written by {seen}; "
                f"its history says {expected}"
            )
            reference.reads_checked += 1

    def close(thread, reason, sync_dst=None):
        tid = thread.thread_id
        check(thread, sorted(reference.reads(tid)), f"interval {reference.closed[tid]} read")
        moved = len(rehome.rehomed)
        interval = real_close(thread, reason, sync_dst)
        reference.close(tid, rehome.rehomed[moved:])
        return interval

    def apply(thread):
        n_new = real_apply(thread)
        copies = hlrc.heaps[thread.node_id].copies
        valid = [oid for oid in sorted(copies) if copies[oid].real_state is RealState.VALID]
        check(thread, valid, "holds a valid copy of")
        return n_new

    hlrc.close_interval = close
    hlrc.apply_notices = apply


def run_beside_reference(seed, maker, replay, config, homes, hot, moves) -> None:
    """One race-free program under HLRC and the reference, with a close
    hook re-homing ``moves`` ({close: (object index, node)})."""
    djvm, obj_ids = build_djvm(replay=replay, homes=homes, **HOOK_CONFIGS[config]())
    hlrc = djvm.hlrc
    programs = race_free(MAKERS[maker](seed, obj_ids), obj_ids)
    rehome = Rehome(hlrc, {k: (obj_ids[i], node) for k, (i, node) in moves.items()})
    djvm.add_hook(rehome)
    reference = ReferenceGOS(programs)
    checked_sync(hlrc, reference, rehome)
    djvm.run(compile_hot(programs) if hot else programs)
    assert reference.reads_checked > 0
    assert reference.closed == {tid: len(iv) for tid, iv in reference.intervals.items()}
    for obj in hlrc.gos:
        assert obj.home_version == reference.version(obj.obj_id)


MOVES = st.dictionaries(
    st.integers(1, 150), st.tuples(st.integers(0, 31), st.integers(0, 3)), max_size=12
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    maker=st.sampled_from(sorted(MAKERS)),
    replay=st.sampled_from(["scalar", "vector"]),
    config=st.sampled_from(sorted(HOOK_CONFIGS)),
    homes=st.sampled_from(["cyclic", "block"]),
    hot=st.booleans(),
    moves=MOVES,
)
def test_every_read_sees_the_reference_version(seed, maker, replay, config, homes, hot, moves):
    """Data-race-free programs with lock pairs and re-homed objects, on
    flat, rack and scaled-compute configurations, both routes: every
    read sees the version the reference history holds, every interval
    closes once in each model, and every home version equals its
    object's history length."""
    run_beside_reference(seed, maker, replay, config, homes, hot, moves)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    config=st.sampled_from(sorted(HOOK_CONFIGS)),
    homes=st.sampled_from(["cyclic", "block"]),
    moves=MOVES,
)
def test_hot_bodies_revisited_after_rehoming_see_the_reference_version(
    seed, config, homes, moves
):
    """The same on the one pass's home-resident splits: bodies that
    repeat, on cached lanes, revisit their nodes after objects they
    touch were re-homed."""
    run_beside_reference(seed, "repeating", "vector", config, homes, True, moves)
