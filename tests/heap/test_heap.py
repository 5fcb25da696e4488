"""Tests for the global object space and local heaps."""

import pytest

from repro.heap.heap import GlobalObjectSpace, LocalHeap


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
        with pytest.raises(ValueError):
            gos.allocate("double[]", 0)

    def test_scalar_with_length_rejected(self):
        gos = make_gos()
        with pytest.raises(ValueError):
            gos.allocate("Obj", 0, length=4)

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
        heap = LocalHeap(0)
        assert heap.get(5) is None
        heap.put(5, "record")
        assert 5 in heap
        assert heap.get(5) == "record"

    def test_len(self):
        heap = LocalHeap(0)
        heap.put(1, "a")
        heap.put(2, "b")
        assert len(heap) == 2
