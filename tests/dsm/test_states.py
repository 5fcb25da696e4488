"""Tests for copy-state records."""

from repro.dsm.states import CopyRecord, RealState


class TestCopyRecord:
    def test_home_never_invalidated(self):
        r = CopyRecord(0, RealState.HOME)
        r.invalidate()
        assert r.real_state is RealState.HOME
        assert r.is_home

    def test_valid_cache_invalidates(self):
        r = CopyRecord(0, RealState.VALID)
        r.invalidate()
        assert r.real_state is RealState.INVALID

    def test_invalid_stays_invalid(self):
        r = CopyRecord(0, RealState.INVALID)
        r.invalidate()
        assert r.real_state is RealState.INVALID

    def test_clear_interval_state(self):
        r = CopyRecord(0, RealState.VALID, dirty_bytes=100, has_twin=True)
        assert r.writers is None  # allocated by the first write only
        r.writers = {3}
        r.clear_interval_state()
        assert r.dirty_bytes == 0
        assert not r.has_twin
        assert r.writers is None
