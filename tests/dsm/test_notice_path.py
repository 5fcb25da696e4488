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
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.homemigration import HomeMigrationEngine
from repro.dsm.states import RealState
from tests.runtime.test_vector_replay import (
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
            self.engine.migrate_home(self.hlrc.gos.get(obj_id), node)
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
