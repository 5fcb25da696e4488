"""Tests for profile trace recording and offline replay."""

import hashlib
import json

import numpy as np
import pytest

from repro.analysis import experiments as E
from repro.analysis.trace import FORMAT_VERSION, ProfileTrace, record_trace
from repro.sim.costs import CostModel
from repro.workloads import GroupSharingWorkload, WaterSpatialWorkload

FAST = CostModel.fast_test()


def factory(seed=1):
    return GroupSharingWorkload(n_threads=8, group_size=2, rounds=3, seed=seed)


@pytest.fixture(scope="module")
def trace():
    return record_trace(lambda: factory(), 4, costs=FAST)


class TestCapture:
    def test_metadata_covers_logged_objects(self, trace):
        logged = {e.obj_id for b in trace.batches for e in b.entries}
        assert set(trace.objects) == logged
        for cid, _seq, _len in trace.objects.values():
            assert cid in trace.classes

    def test_full_tcm_matches_live(self, trace):
        batches, gos, n, run = E.collect_full_batches(lambda: factory(), 4, costs=FAST)
        assert np.allclose(trace.full_tcm(), run.suite.tcm())


class TestRoundTrip:
    def test_json_roundtrip(self, trace):
        clone = ProfileTrace.from_dict(trace.to_dict())
        assert np.allclose(clone.full_tcm(), trace.full_tcm())
        assert clone.n_threads == trace.n_threads
        assert clone.classes == trace.classes

    def test_file_roundtrip(self, trace, tmp_path):
        path = tmp_path / "run.trace"
        trace.save(path)
        assert np.allclose(ProfileTrace.load(path).full_tcm(), trace.full_tcm())

    def test_gzip_roundtrip_smaller(self, trace, tmp_path):
        plain = tmp_path / "run.trace"
        packed = tmp_path / "run.trace.gz"
        trace.save(plain)
        trace.save(packed)
        assert packed.stat().st_size < plain.stat().st_size
        assert np.allclose(ProfileTrace.load(packed).full_tcm(), trace.full_tcm())

    def test_recorded_json_is_pinned(self):
        """The trace format does not depend on how a batch stores its
        entries: the digest was taken with per-entry ``OALEntry`` tuples
        (commit aab533d) and must survive any batch representation."""
        recorded = record_trace(
            lambda: WaterSpatialWorkload(n_molecules=64, rounds=2, n_threads=4, seed=3),
            4,
            costs=FAST,
        )
        payload = json.dumps(recorded.to_dict(), separators=(",", ":"))
        assert sum(len(b) for b in recorded.batches) == 1305
        assert (
            hashlib.sha256(payload.encode()).hexdigest()
            == "6453f82eba02ad3fbb925ff9955679f43ba4f1ae9fcc605dc5c63c9d106791d3"
        )
        assert ProfileTrace.from_dict(json.loads(payload)).to_dict() == recorded.to_dict()

    def test_version_check(self, trace):
        data = trace.to_dict()
        data["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="format version"):
            ProfileTrace.from_dict(data)


class TestOfflineReplay:
    def test_replay_at_rate_matches_live_rerun(self, trace):
        offline = trace.tcm_at_rate(2)
        rerun = E.run_with_correlation(lambda: factory(), 4, rate=2, costs=FAST)
        assert np.allclose(offline, rerun.suite.tcm())

    def test_full_rate_replay_is_identity(self, trace):
        assert np.allclose(trace.tcm_at_rate("full"), trace.full_tcm())

    def test_coarser_rates_stay_accurate(self, trace):
        from repro.core.accuracy import accuracy

        full = trace.full_tcm()
        assert accuracy(trace.tcm_at_rate(4), full) > 0.8


class TestDrift:
    def test_same_seed_zero_drift(self, trace):
        again = record_trace(lambda: factory(), 4, costs=FAST)
        assert trace.drift_from(again) == pytest.approx(0.0)

    def test_different_pattern_nonzero_drift(self, trace):
        other = record_trace(
            lambda: GroupSharingWorkload(
                n_threads=8, group_size=4, rounds=3, seed=9
            ),
            4,
            costs=FAST,
        )
        assert trace.drift_from(other) > 0.1

    def test_shape_mismatch_rejected(self, trace):
        small = record_trace(
            lambda: GroupSharingWorkload(n_threads=4, group_size=2, rounds=2),
            4,
            costs=FAST,
        )
        with pytest.raises(ValueError, match="thread counts"):
            trace.drift_from(small)
