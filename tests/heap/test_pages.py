"""Tests for object-to-page packing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.heap.heap import GlobalObjectSpace
from repro.heap.pages import PageMap


def gos_with(sizes, homes=None):
    gos = GlobalObjectSpace()
    cls = gos.registry.define("Var[]", is_array=True, element_size=1)
    out = []
    for i, s in enumerate(sizes):
        home = 0 if homes is None else homes[i]
        # length chosen so payload+header == s (header is 16).
        out.append(gos.allocate(cls, home, length=max(s - 16, 1)))
    return gos, out


class TestPlacement:
    def test_small_objects_share_a_page(self):
        gos, objs = gos_with([100, 100, 100])
        pm = PageMap(page_size=4096)
        for o in objs:
            first, last = pm.place(o)
            assert first == last == 0
        assert {page for o in objs for page in pm.pages_of(o.obj_id)} == {(0, 0)}

    def test_large_object_spans_pages(self):
        gos, objs = gos_with([10_000])
        pm = PageMap(page_size=4096)
        first, last = pm.place(objs[0])
        assert (first, last) == (0, 2)
        assert pm.pages_of(0) == [(0, 0), (0, 1), (0, 2)]

    def test_double_place_rejected(self):
        gos, objs = gos_with([100])
        pm = PageMap()
        pm.place(objs[0])
        with pytest.raises(ValueError):
            pm.place(objs[0])

    def test_per_node_heaps_are_disjoint(self):
        gos, objs = gos_with([100, 100], homes=[0, 1])
        pm = PageMap()
        pm.place_all(gos)
        assert pm.pages_of(0) == [(0, 0)]
        assert pm.pages_of(1) == [(1, 0)]

    def test_place_all_idempotent_for_placed(self):
        gos, objs = gos_with([100, 100])
        pm = PageMap()
        pm.place(objs[0])
        pm.place_all(gos)  # must not re-place object 0
        assert 1 in pm


class TestPagesOfRange:
    def test_subrange_touches_fewer_pages(self):
        gos, objs = gos_with([20_000])
        pm = PageMap(page_size=4096)
        pm.place(objs[0])
        all_pages = pm.pages_of(0)
        sub = pm.pages_of_range(0, 0, 100)
        assert len(sub) < len(all_pages)
        assert sub == [(0, 0)]

    def test_empty_range(self):
        gos, objs = gos_with([1000])
        pm = PageMap()
        pm.place(objs[0])
        assert pm.pages_of_range(0, 0, 0) == []

    def test_range_clamped_to_extent(self):
        gos, objs = gos_with([1000])
        pm = PageMap(page_size=4096)
        pm.place(objs[0])
        assert pm.pages_of_range(0, 500, 10**6) == [(0, 0)]

    @given(
        st.integers(min_value=1, max_value=30_000),
        st.integers(min_value=0, max_value=30_000),
        st.integers(min_value=1, max_value=30_000),
    )
    def test_subrange_is_subset_of_extent(self, size, off, length):
        gos, objs = gos_with([max(size, 17)])
        pm = PageMap(page_size=4096)
        pm.place(objs[0])
        sub = set(pm.pages_of_range(0, off, length))
        assert sub <= set(pm.pages_of(0))
