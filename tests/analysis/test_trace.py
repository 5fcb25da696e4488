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


def small_trace_dict() -> dict:
    """A well-formed two-thread trace: a scalar class and an array
    class, one object of each, both logged by both threads."""
    return {
        "format_version": FORMAT_VERSION,
        "n_threads": 2,
        "page_size": 4096,
        "classes": {"0": ["Body", 96, False, 0], "1": ["double[]", 16, True, 8]},
        "objects": {"0": [0, 0, 0], "1": [1, 0, 40]},
        "batches": [
            {"thread": t, "interval": 0, "entries": [[0, 96, 0], [1, 320, 1]]} for t in (0, 1)
        ],
    }


def _unknown_object(data):
    data["batches"][0]["entries"].append([7, 96, 0])


def _unknown_class(data):
    data["objects"]["0"][0] = 5


def _negative_array_length(data):
    data["objects"]["1"][2] = -5


def _empty_array(data):
    data["objects"]["1"][2] = 0


def _scalar_with_length(data):
    data["objects"]["0"][2] = 3


def _negative_seq(data):
    data["objects"]["0"][1] = -1


class TestMalformedMetadata:
    """Object metadata a replay cannot decide from is refused at load,
    not met later as a bare KeyError or a silent replay."""

    def test_well_formed_trace_replays(self):
        trace = ProfileTrace.from_dict(small_trace_dict())
        for backend in ("prime_gap", "hash", "poisson", "hybrid"):
            assert trace.tcm_at_rate(4, backend=backend).shape == (2, 2)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            pytest.param(corrupt, message, id=corrupt.__name__.strip("_"))
            for corrupt, message in (
                (_unknown_object, "object 7 is not in objects"),
                (_unknown_class, "class 5 is not in classes"),
                (_negative_array_length, "array needs length >= 1, got -5"),
                (_empty_array, "array needs length >= 1, got 0"),
                (_scalar_with_length, "scalar cannot take a length, got 3"),
                (_negative_seq, "negative seq -1"),
            )
        ],
    )
    def test_rejected(self, corrupt, message, tmp_path):
        data = small_trace_dict()
        corrupt(data)
        with pytest.raises(ValueError, match=message):
            ProfileTrace.from_dict(data)
        path = tmp_path / "bad.trace"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"trace {path}: .*{message}"):
            ProfileTrace.load(path)


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
