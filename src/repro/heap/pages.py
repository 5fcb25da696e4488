"""Object-to-page packing for the page-based DSM baseline.

Page-grained correlation tracking (D-CVM style, the baseline the paper
argues against) observes sharing at page granularity.  What it can see
is entirely determined by how objects pack into pages: small objects
allocated back-to-back by different logical owners end up on one page
and every page-level event conflates their accessors — the *false
sharing* that destroys the inherent pattern in Fig. 1(b).

We model a bump-pointer allocator per home node: objects are laid out in
allocation order, an object spans ``ceil(size / page)`` pages when large,
and small objects share pages until one fills up.  This matches how a
real JVM heap would have been laid out after the single-threaded
initialization phase of the SPLASH-2 style programs.
"""

from __future__ import annotations

from repro.heap.heap import GlobalObjectSpace
from repro.heap.objects import HeapObject
from repro.util.validation import check_positive


class PageMap:
    """Assigns every object a half-open byte range in its node's heap and
    exposes the object -> pages mapping."""

    def __init__(self, page_size: int = 4096) -> None:
        check_positive(page_size, "page_size")
        self.page_size = int(page_size)
        #: next free byte offset per home node.
        self._cursor: dict[int, int] = {}
        #: obj_id -> (home_node, start_offset, size)
        self._extent: dict[int, tuple[int, int, int]] = {}

    def place(self, obj: HeapObject) -> tuple[int, int]:
        """Place one object at the node's current bump pointer.

        Returns the (first_page, last_page) index range it occupies.
        """
        if obj.obj_id in self._extent:
            raise ValueError(f"object {obj.obj_id} already placed")
        node = obj.home_node
        start = self._cursor.get(node, 0)
        size = max(obj.size_bytes, 1)
        self._cursor[node] = start + size
        self._extent[obj.obj_id] = (node, start, size)
        return start // self.page_size, (start + size - 1) // self.page_size

    def place_all(self, gos: GlobalObjectSpace) -> None:
        """Place every object of a global object space in allocation order."""
        for obj in gos:
            if obj.obj_id not in self._extent:
                self.place(obj)

    def pages_of(self, obj_id: int) -> list[tuple[int, int]]:
        """(node, page) pairs the object's extent overlaps."""
        node, start, size = self._extent[obj_id]
        first = start // self.page_size
        last = (start + size - 1) // self.page_size
        return [(node, p) for p in range(first, last + 1)]

    def pages_of_range(self, obj_id: int, byte_off: int, byte_len: int) -> list[tuple[int, int]]:
        """(node, page) pairs overlapped by a sub-range of the object
        (lets large-array accesses touch only the pages they really use)."""
        node, start, size = self._extent[obj_id]
        if byte_len <= 0:
            return []
        byte_off = max(0, min(byte_off, size - 1))
        end = min(byte_off + byte_len, size)
        first = (start + byte_off) // self.page_size
        last = (start + end - 1) // self.page_size
        return [(node, p) for p in range(first, last + 1)]

    def __contains__(self, obj_id: int) -> bool:
        return obj_id in self._extent
