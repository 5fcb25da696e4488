"""Tests for copy state as per-node state bytes, read through the one
accessor (``HomeBasedLRC.copy``)."""

from repro.dsm.states import ABSENT, HOME, INVALID, STATE_OF, VALID, RealState
from repro.runtime.djvm import DJVM


def _setup():
    djvm = DJVM(2)
    cls = djvm.define_class("Obj", 64)
    obj = djvm.allocate(cls, 0)
    thread = djvm.spawn_thread(1)
    djvm.hlrc.open_interval(thread)
    return djvm, obj, thread


def test_state_bytes_order_current_copies_last():
    """One compare splits the bytes: a copy needs no coherence work iff
    its byte is at least VALID; the column starts all absent."""
    assert ABSENT == 0 < INVALID < VALID < HOME
    assert [STATE_OF[c] for c in (INVALID, VALID, HOME)] == [
        RealState.INVALID,
        RealState.VALID,
        RealState.HOME,
    ]
    assert STATE_OF[ABSENT] is None


class TestCopyRecord:
    """A copy's record is its node's columns, read through the one
    accessor."""

    def test_home_never_invalidated(self):
        djvm, obj, _ = _setup()
        home = djvm.spawn_thread(0)
        djvm.hlrc.open_interval(home)
        assert djvm.hlrc.copy(0, obj.obj_id) is None
        djvm.hlrc.access(home, obj.obj_id, is_write=True)
        djvm.hlrc.close_interval(home, "release")
        copy = djvm.hlrc.copy(0, obj.obj_id)
        assert copy.is_home and copy.real_state is RealState.HOME
        assert (copy.fetched_version, copy.has_twin, copy.dirty_bytes, copy.writers) == (
            0,
            False,
            0,
            None,
        )
        djvm.hlrc.apply_notices(home)
        assert djvm.hlrc.copy(0, obj.obj_id).real_state is RealState.HOME

    def test_valid_cache_invalidates(self):
        djvm, obj, thread = _setup()
        _invalidate(djvm, obj, thread)
        copy = djvm.hlrc.copy(1, obj.obj_id)
        assert copy.real_state is RealState.INVALID and copy.fetched_version == 0

    def test_invalid_stays_invalid(self):
        djvm, obj, thread = _setup()
        _invalidate(djvm, obj, thread)
        assert djvm.hlrc.apply_notices(thread) == 0
        assert djvm.hlrc.copy(1, obj.obj_id).real_state is RealState.INVALID

    def test_clear_interval_state(self):
        """Twin, dirty bytes and writers are sparse: only a cache copy
        written this interval has them, and the diff flush clears them."""
        djvm, obj, thread = _setup()
        djvm.hlrc.access(thread, obj.obj_id, is_write=True)
        copy = djvm.hlrc.copy(1, obj.obj_id)
        assert (copy.has_twin, copy.dirty_bytes) == (True, 64)
        assert copy.writers == frozenset({thread.thread_id})
        djvm.hlrc.close_interval(thread, "release")
        copy = djvm.hlrc.copy(1, obj.obj_id)
        assert (copy.has_twin, copy.dirty_bytes, copy.writers) == (False, 0, None)
        assert copy.fetched_version == djvm.hlrc.home_version[obj.obj_id] == 1


def _invalidate(djvm, obj, thread) -> None:
    """Give ``thread``'s node a valid copy of ``obj``, publish a write
    to it from its home node and apply the notice there."""
    home = djvm.spawn_thread(0)
    djvm.hlrc.open_interval(home)
    djvm.hlrc.access(thread, obj.obj_id)
    assert djvm.hlrc.copy(1, obj.obj_id).real_state is RealState.VALID
    djvm.hlrc.access(home, obj.obj_id, is_write=True)
    djvm.hlrc.close_interval(home, "release")
    assert djvm.hlrc.apply_notices(thread) == 1


def test_reads_of_the_columns_return_plain_ints():
    djvm, obj, thread = _setup()
    djvm.hlrc.access(thread, obj.obj_id)
    heap = djvm.hlrc.heaps[1]
    values = heap.state[obj.obj_id], heap.fetched[obj.obj_id], djvm.hlrc.home_version[obj.obj_id]
    assert [type(value) for value in values] == [int, int, int]
    assert djvm.hlrc.copy_ids(1) == [obj.obj_id] and type(djvm.hlrc.copy_ids(1)[0]) is int
    assert len(heap) == 1 and obj.obj_id in heap


def test_columns_grow_with_the_space_and_keep_their_contents():
    djvm, obj, thread = _setup()
    djvm.hlrc.access(thread, obj.obj_id)
    cls = djvm.gos.registry.get("Obj")
    more = [djvm.allocate(cls, 0) for _ in range(3000)]
    heap = djvm.hlrc.heaps[1]
    assert len(heap.state) == len(heap.fetched) == len(djvm.hlrc.home_version) >= len(djvm.gos)
    assert heap.state_np.base is not None and len(heap.state_np) == len(heap.state)
    assert djvm.hlrc.copy(1, obj.obj_id).real_state is RealState.VALID
    assert djvm.hlrc.copy(1, more[-1].obj_id) is None
    djvm.hlrc.access(thread, more[-1].obj_id)
    assert djvm.hlrc.copy(1, more[-1].obj_id).real_state is RealState.VALID
