"""Property-based tests over workload structure shared by SOR and
Water-Spatial (Barnes-Hut has its own module)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.djvm import DJVM
from repro.runtime.program import OP_BARRIER, validate_program
from repro.sim.costs import CostModel
from repro.workloads import SORWorkload, WaterSpatialWorkload
from repro.workloads.base import Workload


class TestBlockRange:
    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=16),
    )
    def test_partition_is_exact(self, total, n_parts):
        """Block ranges cover 0..total-1 exactly once, in order."""
        seen = []
        for part in range(n_parts):
            seen.extend(Workload.block_range(total, part, n_parts))
        assert seen == list(range(total))

    @given(
        st.integers(min_value=16, max_value=500),
        st.integers(min_value=1, max_value=16),
    )
    def test_balanced_within_one(self, total, n_parts):
        sizes = [len(Workload.block_range(total, p, n_parts)) for p in range(n_parts)]
        assert max(sizes) - min(sizes) <= 1

    def test_out_of_range_part(self):
        import pytest

        with pytest.raises(ValueError):
            Workload.block_range(10, 5, 4)


def barrier_count(ops):
    return sum(1 for op in ops if op[0] == OP_BARRIER)


sor_configs = st.tuples(
    st.sampled_from([32, 64, 96]),       # n
    st.integers(min_value=1, max_value=3),  # rounds
    st.sampled_from([2, 4]),             # threads
)


class TestProgramUniformity:
    """Every thread of a barrier-synchronized workload must emit the same
    number of barrier ops (or the run deadlocks)."""

    @given(sor_configs)
    @settings(max_examples=10, deadline=None)
    def test_sor(self, cfg):
        n, rounds, threads = cfg
        wl = SORWorkload(n=n, rounds=rounds, n_threads=threads)
        wl.build(DJVM(threads, costs=CostModel.fast_test()))
        counts = {barrier_count(list(wl.program(t))) for t in range(threads)}
        assert len(counts) == 1
        assert counts.pop() == 2 * rounds

    @given(st.integers(min_value=1, max_value=3), st.sampled_from([2, 4]))
    @settings(max_examples=8, deadline=None)
    def test_water_spatial(self, rounds, threads):
        wl = WaterSpatialWorkload(n_molecules=64, rounds=rounds, n_threads=threads)
        wl.build(DJVM(threads, costs=CostModel.fast_test()))
        counts = {barrier_count(list(wl.program(t))) for t in range(threads)}
        assert counts == {2 * rounds}

    @given(st.integers(min_value=1, max_value=3), st.sampled_from([2, 4]))
    @settings(max_examples=8, deadline=None)
    def test_all_programs_structurally_valid(self, rounds, threads):
        for wl in (
            SORWorkload(n=64, rounds=rounds, n_threads=threads),
            WaterSpatialWorkload(n_molecules=64, rounds=rounds, n_threads=threads),
        ):
            wl.build(DJVM(threads, costs=CostModel.fast_test()))
            for t in range(threads):
                assert validate_program(list(wl.program(t))) == []


class TestDeterministicBuilds:
    @given(st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=10, deadline=None)
    def test_same_seed_same_structure(self, seed):
        a = WaterSpatialWorkload(n_molecules=64, rounds=2, n_threads=4, seed=seed)
        b = WaterSpatialWorkload(n_molecules=64, rounds=2, n_threads=4, seed=seed)
        a.build(DJVM(4, costs=CostModel.fast_test()))
        b.build(DJVM(4, costs=CostModel.fast_test()))
        assert a._rounds_members == b._rounds_members
        assert a._rounds_moves == b._rounds_moves
