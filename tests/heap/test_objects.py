"""Tests for heap objects (views of a global object space's rows)."""

import pytest

from repro.heap.heap import GlobalObjectSpace


def make(is_array=False, seq=0, length=0):
    """One object of a fresh space, its seq column set to ``seq``."""
    gos = GlobalObjectSpace()
    if is_array:
        jclass = gos.registry.define("double[]", 16, is_array=True, element_size=8)
    else:
        jclass = gos.registry.define("Obj", 64)
    obj = gos.allocate(jclass, home_node=0, length=length)
    gos.seq[obj.obj_id] = seq
    return obj


class TestHeapObject:
    def test_scalar_size(self):
        obj = make()
        assert obj.size_bytes == 64
        assert not obj.is_array

    def test_array_size_includes_header_and_payload(self):
        obj = make(True, seq=0, length=10)
        assert obj.size_bytes == 16 + 80
        assert obj.is_array

    def test_element_seq(self):
        obj = make(True, seq=100, length=5)
        assert obj.element_seq(0) == 100
        assert obj.element_seq(4) == 104

    def test_element_seq_bounds(self):
        obj = make(True, seq=0, length=3)
        with pytest.raises(IndexError):
            obj.element_seq(3)
        with pytest.raises(IndexError):
            obj.element_seq(-1)

    def test_element_seq_on_scalar_rejected(self):
        obj = make()
        with pytest.raises(TypeError):
            obj.element_seq(0)

    def test_add_ref(self):
        obj = make()
        obj.add_ref(5)
        obj.add_ref(6)
        assert obj.refs == [5, 6]
