"""Tests for object access list records."""

from repro.core.oal import BATCH_HEADER_BYTES, ENTRY_WIRE_BYTES, OALBatch, OALEntry


class TestOALBatch:
    def test_add_and_len(self):
        b = OALBatch(thread_id=1, interval_id=3)
        b.add(10, 640, class_id=0)
        b.add(11, 128, class_id=2)
        assert len(b) == 2
        assert b.entries[0].obj_id == 10
        assert b.entries[0].scaled_bytes == 640
        assert b.entries[1].class_id == 2

    def test_wire_bytes(self):
        b = OALBatch(thread_id=0, interval_id=0)
        assert b.wire_bytes == BATCH_HEADER_BYTES
        b.add(1, 1, 0)
        b.add(2, 1, 0)
        assert b.wire_bytes == BATCH_HEADER_BYTES + 2 * ENTRY_WIRE_BYTES

    def test_interval_context_kept(self):
        b = OALBatch(thread_id=4, interval_id=9, start_pc=100, end_pc=250)
        assert (b.start_pc, b.end_pc) == (100, 250)

    def test_entries_are_a_view_of_the_columns(self):
        b = OALBatch(thread_id=2, interval_id=5)
        rows = [(10, 640, 0), (11, 128, 2), (7, 64, 2)]
        for row in rows:
            b.add(*row)
        assert (b.obj_ids, b.scaled_bytes, b.class_ids) == ([10, 11, 7], [640, 128, 64], [0, 2, 2])
        assert b.entries == tuple(OALEntry(*row) for row in rows)
        assert len(b) == len(b.entries) == 3
        assert b.wire_bytes == BATCH_HEADER_BYTES + 3 * ENTRY_WIRE_BYTES
        # Rebuilt from the view, the batch is the same batch.
        clone = OALBatch(thread_id=2, interval_id=5)
        for entry in b.entries:
            clone.add(entry.obj_id, entry.scaled_bytes, entry.class_id)
        assert clone == b
