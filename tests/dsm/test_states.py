"""Tests for copy-state records."""

import pytest

from repro.dsm.states import HOME_COPY, CopyRecord, RealState


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


def test_the_shared_home_copy_is_read_only():
    """Every materialized home copy is ``HOME_COPY``: a plain home record
    that no write can change."""
    assert HOME_COPY.is_home and HOME_COPY.real_state is RealState.HOME
    assert (HOME_COPY.fetched_version, HOME_COPY.dirty_bytes) == (0, 0)
    assert not HOME_COPY.has_twin and HOME_COPY.writers is None
    with pytest.raises(AttributeError, match="HOME_COPY is shared"):
        HOME_COPY.has_twin = True
    with pytest.raises(AttributeError, match="HOME_COPY is shared"):
        HOME_COPY.clear_interval_state()
    HOME_COPY.invalidate()  # a home copy never goes stale: a no-op
    assert HOME_COPY.real_state is RealState.HOME
