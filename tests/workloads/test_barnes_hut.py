"""Tests for the Barnes-Hut workload."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.heatmap import block_contrast
from repro.core.profiler import ProfilerSuite
from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel
from repro.workloads import BarnesHutWorkload, barnes_hut


def build(n_bodies=256, rounds=2, n_threads=4, n_nodes=4, **kw):
    wl = BarnesHutWorkload(n_bodies=n_bodies, rounds=rounds, n_threads=n_threads, **kw)
    djvm = DJVM(n_nodes=n_nodes, costs=CostModel.fast_test())
    wl.build(djvm)
    return wl, djvm


class TestGalaxies:
    def test_two_equal_galaxies(self):
        wl, _ = build()
        assert (wl.galaxy_of == 0).sum() == 128
        assert (wl.galaxy_of == 1).sum() == 128

    def test_costzone_order_groups_galaxies(self):
        """After (galaxy, Morton) ordering, each thread's chunk is within
        one galaxy (for thread counts dividing the galaxy split)."""
        wl, _ = build(n_bodies=256, n_threads=4)
        for t in range(4):
            chunk = wl.galaxy_of[list(wl.bodies_of(t))]
            assert len(set(chunk.tolist())) == 1

    def test_bodies_have_vectors(self):
        wl, djvm = build()
        body = djvm.gos.get(wl.body_ids[0])
        assert body.jclass.name == "Body"
        assert len(body.refs) == 3
        for v in body.refs:
            assert djvm.gos.get(v).jclass.name == "Vect3"


class TestOctree:
    def test_tree_allocated_per_round(self):
        wl, djvm = build(rounds=3)
        roots = [plan[0] for plan in wl._round_plans]
        assert len(set(roots)) == 3  # fresh tree each round

    def test_leaf_capacity_respected(self):
        wl = BarnesHutWorkload(n_bodies=128, rounds=1, n_threads=4, leaf_capacity=4)
        pos, _, _ = wl._generate_galaxies()
        root = wl._build_tree(pos).root()
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert len(node.bodies) <= 4
            else:
                stack.extend(node.children)

    def test_coincident_bodies_beyond_leaf_capacity_raise(self):
        """Nine bodies at one point can never be split into leaves of
        eight: the build must say so instead of splitting forever."""
        wl = BarnesHutWorkload(n_bodies=16, rounds=1, n_threads=4, leaf_capacity=8)
        pos = np.random.default_rng(0).uniform(-1, 1, size=(16, 3))
        pos[:9] = 0.25
        with pytest.raises(ValueError, match=r"9 bodies coincide.*leaf_capacity is 8"):
            wl._build_tree(pos)
        pos[8] = 0.5  # eight coincident bodies still fit one leaf
        leaf_sizes = []
        stack = [wl._build_tree(pos).root()]
        while stack:
            node = stack.pop()
            leaf_sizes.append(len(node.bodies))
            stack.extend(node.children)
        assert max(leaf_sizes) == 8

    def test_traversal_visits_fewer_with_larger_theta(self):
        wl = BarnesHutWorkload(n_bodies=256, rounds=1, n_threads=4, theta=0.3)
        pos, _, _ = wl._generate_galaxies()
        root = wl._build_tree(pos).root()
        tight, _ = wl._traverse(root, pos, 0)
        wl.theta = 1.2
        loose, _ = wl._traverse(root, pos, 0)
        assert len(loose) < len(tight)

    def test_traversal_covers_all_partners_at_tiny_theta(self):
        """With theta -> 0 every other body is an interaction partner
        (the traversal degenerates to all-pairs)."""
        wl = BarnesHutWorkload(n_bodies=64, rounds=1, n_threads=4, theta=1e-6)
        pos, _, _ = wl._generate_galaxies()
        root = wl._build_tree(pos).root()
        _, partners = wl._traverse(root, pos, 0)
        assert sorted(partners) == [i for i in range(64) if i != 0]


class TestSharingProfile:
    def test_intra_galaxy_dominates(self):
        wl, djvm = build(n_bodies=256, n_threads=8, n_nodes=4)
        suite = ProfilerSuite(djvm, send_oals=False)
        suite.set_full_sampling()
        djvm.run(wl.programs())
        tcm = suite.tcm()
        groups = [0 if wl.galaxy_of[list(wl.bodies_of(t))[0]] == 0 else 1 for t in range(8)]
        assert block_contrast(tcm, groups) > 1.5

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            BarnesHutWorkload(n_bodies=2, n_threads=4)
        with pytest.raises(ValueError):
            BarnesHutWorkload(theta=0)
        with pytest.raises(ValueError):
            BarnesHutWorkload(leaf_capacity=0)

    def test_rebuild_starts_from_a_clean_slate(self):
        """A second build() on a fresh DJVM allocates the same graph and
        emits the same ops as the first — no ids carried over."""
        wl = BarnesHutWorkload(n_bodies=64, rounds=2, n_threads=4)
        tables, programs = [], []
        for _build in range(2):
            djvm = DJVM(n_nodes=4, costs=CostModel.fast_test())
            wl.build(djvm)
            assert len(wl.body_ids) == len(wl.vect_ids) == 64
            tables.append(
                [(o.jclass.name, o.seq, o.home_node, o.length, o.refs, o.site) for o in djvm.gos]
            )
            programs.append(wl.programs())
        assert tables[0] == tables[1]
        assert programs[0] == programs[1]

    def test_site_origins_name_the_allocating_lines(self):
        _wl, djvm = build()
        lines = Path(barnes_hut.__file__).read_text().splitlines()
        origins = djvm.gos.site_origins
        assert sorted(origins) == ["bh.bodies", "bh.body", "bh.transient", "bh.tree", "bh.vect"]
        for origin in origins.values():
            path, line = origin.rsplit(":", 1)
            assert path == "repro/workloads/barnes_hut.py"
            assert re.search(r"\ballocate(_many)?\(", lines[int(line) - 1])

    def test_runs_to_completion(self):
        wl, djvm = build()
        res = djvm.run(wl.programs())
        assert res.counters["intervals"] > 0
        # 3 barrier episodes per round x 2 rounds.
        assert len(djvm.hlrc.sync.barriers) == 6


class TestVectorizedPlanner:
    def test_plan_round_matches_reference(self):
        """The vectorized planner must reproduce the per-body reference
        traversal exactly — same per-thread counts AND the same order
        (which fixes the op stream _generate emits)."""
        wl, _ = build(n_bodies=128, rounds=3, n_threads=4, n_nodes=4)
        # Reconstruct the same (galaxy, Morton)-ordered state build() used.
        pos, vel, labels = wl._generate_galaxies()
        order = np.lexsort((wl._morton_order(pos).argsort(), labels))
        pos, vel = pos[order], vel[order]
        for _round in range(wl.rounds):
            tree = wl._build_tree(pos)
            # Stand in for _allocate_tree: give every node a distinct id
            # so the plans key on real, unique objects.
            n_nodes = len(tree.counts)
            tree.obj_id = 10_000_000 + np.arange(n_nodes)
            tree.arr_id = np.where(tree.n_children == 0, 20_000_000 + np.arange(n_nodes), -1)
            fast = wl._plan_round(tree, pos)
            ref = wl._plan_round_reference(tree.root(), pos)
            assert len(fast) == len(ref) == wl.n_threads
            for (ids, counts), (ref_ids, ref_counts) in zip(fast, ref):
                assert ids.tolist() == ref_ids.tolist()
                assert counts.tolist() == ref_counts.tolist()
            pos = pos + vel * wl.dt
