"""Tests for the global object space and local heaps."""

import sys

import pytest

from repro.heap.heap import GlobalObjectSpace, LocalHeap
from repro.runtime.djvm import DJVM


def make_gos():
    gos = GlobalObjectSpace()
    gos.registry.define("Obj", 64)
    gos.registry.define("double[]", is_array=True, element_size=8)
    return gos


class TestGlobalObjectSpace:
    def test_allocate_scalar(self):
        gos = make_gos()
        a = gos.allocate("Obj", home_node=1)
        b = gos.allocate("Obj", home_node=2)
        assert (a.obj_id, b.obj_id) == (0, 1)
        assert (a.seq, b.seq) == (0, 1)
        assert a.home_node == 1

    def test_array_consumes_length_seqs(self):
        gos = make_gos()
        a = gos.allocate("double[]", 0, length=10)
        b = gos.allocate("double[]", 0, length=3)
        assert a.seq == 0
        assert b.seq == 10

    def test_array_without_length_rejected(self):
        gos = make_gos()
        with pytest.raises(ValueError, match=r"array of class double\[\] needs length >= 1, got 0"):
            gos.allocate("double[]", 0)
        with pytest.raises(ValueError, match=r"needs length >= 1, got -2"):
            gos.allocate("double[]", 0, length=-2)

    def test_scalar_with_length_rejected(self):
        gos = make_gos()
        with pytest.raises(ValueError, match="scalar class Obj cannot take a length"):
            gos.allocate("Obj", 0, length=4)

    def test_unknown_class_name_rejected(self):
        gos = make_gos()
        with pytest.raises(KeyError, match="class 'Nope' is not defined"):
            gos.allocate("Nope", 0)

    def test_rejected_allocations_leave_no_trace(self):
        gos = make_gos()
        for bad in (dict(jclass="Obj", length=1), dict(jclass="double[]"), dict(jclass="Nope")):
            with pytest.raises((ValueError, KeyError)):
                gos.allocate(home_node=0, **bad)
        assert len(gos) == 0
        assert [c.next_seq for c in gos.registry] == [0, 0]

    def test_sequence_numbers_per_class(self):
        gos = make_gos()
        objs = [
            gos.allocate("Obj", 0),
            gos.allocate("double[]", 0, length=4),
            gos.allocate("Obj", 1),
            gos.allocate("double[]", 1, length=1),
            gos.allocate("Obj", 0),
        ]
        assert [(o.obj_id, o.seq) for o in objs] == [(0, 0), (1, 0), (2, 1), (3, 4), (4, 2)]
        assert [c.next_seq for c in gos.registry] == [3, 5]

    def test_refs_are_copied(self):
        gos = make_gos()
        refs = [0]
        obj = gos.allocate("Obj", 0, refs=refs)
        refs.append(1)
        assert obj.refs == [0]

    def test_site_origin_names_the_allocating_line(self):
        gos = make_gos()
        gos.allocate("Obj", 0, site="first")
        line = sys._getframe().f_lineno - 1
        gos.allocate("Obj", 0, site="first")  # a later line keeps the first one
        assert list(gos.site_origins) == ["first"]
        assert gos.site_origins["first"].endswith(f"test_heap.py:{line}")

    def test_site_origin_skips_the_djvm_facade(self):
        djvm = DJVM(2)
        cls = djvm.registry.define("Obj", 64)
        djvm.allocate(cls, 1, site="via-djvm")
        line = sys._getframe().f_lineno - 1
        assert djvm.gos.site_origins["via-djvm"].endswith(f"test_heap.py:{line}")

    def test_refs_stored(self):
        gos = make_gos()
        a = gos.allocate("Obj", 0)
        b = gos.allocate("Obj", 0, refs=[a.obj_id])
        assert b.refs == [a.obj_id]

    def test_objects_of_class(self):
        gos = make_gos()
        a = gos.allocate("Obj", 0)
        gos.allocate("double[]", 0, length=2)
        c = gos.allocate("Obj", 0)
        ids = [o.obj_id for o in gos.objects_of_class("Obj")]
        assert ids == [a.obj_id, c.obj_id]

    def test_total_bytes(self):
        gos = make_gos()
        gos.allocate("Obj", 0)
        gos.allocate("double[]", 0, length=10)
        assert gos.total_bytes() == 64 + 16 + 80

    def test_len_and_iter(self):
        gos = make_gos()
        gos.allocate("Obj", 0)
        gos.allocate("Obj", 1)
        assert len(gos) == 2
        assert [o.obj_id for o in gos] == [0, 1]


class TestLocalHeap:
    def test_put_get(self):
        """A copy is a state byte in the node's column; the numpy view
        reads the same memory."""
        heap = LocalHeap(0)
        heap.resize(8)
        assert 5 not in heap and heap.state[5] == 0
        heap.state[5] = 2
        heap.fetched[5] = 7
        assert 5 in heap
        assert (heap.state_np[5], heap.fetched_np[5]) == (2, 7)

    def test_len(self):
        heap = LocalHeap(0)
        heap.resize(8)
        heap.state[1] = 3
        heap.state[2] = 1
        assert len(heap) == 2
        heap.resize(2048)
        assert len(heap) == 2 and heap.state[1] == 3 and len(heap.fetched_np) == 2048

    def test_columns_follow_the_space(self):
        """A heap registered with the space grows with its allocations."""
        gos = make_gos()
        heap = LocalHeap(0)
        gos.add_columns(heap)
        objs = [gos.allocate("Obj", 0) for _ in range(1500)]
        assert len(heap.state) == gos.capacity >= len(objs)
