"""Property-based tests on the Barnes-Hut octree and ordering internals,
and the array build against its two per-body reference functions."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel
from repro.workloads.barnes_hut import BarnesHutWorkload


def workload(n_bodies=64, **kw):
    return BarnesHutWorkload(n_bodies=n_bodies, rounds=1, n_threads=4, **kw)


@st.composite
def positions(draw, n=48, min_repeats=0, max_repeats=8):
    """``n`` uniform points of which ``min_repeats..max_repeats`` coincide
    (a leaf holds coincident bodies only while they fit its capacity)."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    pos = rng.uniform(-3, 3, size=(n, 3))
    repeats = draw(st.integers(min_value=min_repeats, max_value=max_repeats))
    if repeats > 1:
        where = rng.choice(n, size=repeats, replace=False)
        pos[where] = pos[where[0]]
    return pos


def same_tree(fast, ref):
    """Same shape, child order, leaf bodies in order; geometry bit for bit."""
    pairs = [(fast, ref)]
    while pairs:
        a, b = pairs.pop()
        assert (a.is_leaf, a.count, a.bodies) == (b.is_leaf, b.count, b.bodies)
        assert a.center.tobytes() == b.center.tobytes()
        assert np.array([a.half, *a.centroid]).tobytes() == np.array([b.half, *b.centroid]).tobytes()
        assert len(a.children) == len(b.children)
        pairs.extend(zip(a.children, b.children))


def build(reference, *, galaxies=None, n_nodes=4, **kw):
    """Build a workload on a fresh DJVM, through the array build or with
    the per-body and per-node reference functions standing in for it."""
    wl = BarnesHutWorkload(**kw)
    if reference:
        wl._round = wl._round_reference
    if galaxies is not None:
        wl._generate_galaxies = lambda: galaxies
    djvm = DJVM(n_nodes=n_nodes, costs=CostModel.fast_test())
    wl.build(djvm)
    return wl, djvm


def object_table(djvm):
    """What allocation order decides: obj id -> class, seq, home, shape."""
    return [
        (o.obj_id, o.jclass.name, o.seq, o.home_node, o.length, tuple(o.refs), o.site)
        for o in djvm.gos
    ]


def level_order(root):
    """The nodes under ``root`` level by level, children in order."""
    nodes = [root]
    for node in nodes:
        nodes.extend(node.children)
    return nodes


def plain(round_plans):
    """Round plans with each thread's (ids, counts) arrays as lists."""
    return [
        (root, [(ids.tolist(), counts.tolist()) for ids, counts in plans], n_nodes)
        for root, plans, n_nodes in round_plans
    ]


def digest(wl, djvm):
    h = hashlib.sha256(repr(object_table(djvm)).encode())
    for ops in wl.programs().values():
        h.update(repr(list(ops)).encode())
    return h.hexdigest()


class TestArrayBuildMatchesReference:
    @given(
        positions(max_repeats=3),
        st.floats(min_value=0.05, max_value=1.9),
        st.integers(min_value=3, max_value=9),
        # 5 and 7 do not divide 48; with 1 or 2 every leaf has one owner.
        st.sampled_from([1, 2, 4, 5, 7, 16]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_tree_allocation_and_plan(self, pos, theta, leaf_capacity, n_threads):
        kw = dict(
            n_bodies=len(pos), rounds=2, n_threads=n_threads,
            theta=theta, leaf_capacity=leaf_capacity,
        )
        probe = BarnesHutWorkload(**kw)
        same_tree(probe._build_tree(pos).root(), probe._build_tree_reference(pos))

        rng = np.random.default_rng(len(pos) * n_threads)
        galaxies = (pos, rng.normal(0, 2, size=pos.shape), np.arange(len(pos)) % 2)
        fast, fast_djvm = build(False, galaxies=galaxies, **kw)
        ref, ref_djvm = build(True, galaxies=galaxies, **kw)
        assert object_table(fast_djvm) == object_table(ref_djvm)
        assert plain(fast._round_plans) == plain(ref._round_plans)
        assert fast.programs() == ref.programs()

        # Every node's home thread, against the per-node rule.
        tree = fast._build_tree(pos)
        homes = fast._cell_owners(tree, tree.stack_order()).tolist()
        assert homes == [fast._dominant_thread_reference(node) for node in level_order(tree.root())]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_whole_workload_digest(self, seed):
        kw = dict(n_bodies=256, rounds=2, n_threads=4, seed=seed)
        assert digest(*build(False, **kw)) == digest(*build(True, **kw))

    @given(positions(n=24, min_repeats=5, max_repeats=12), st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_more_coincident_bodies_than_a_leaf_holds(self, pos, leaf_capacity):
        wl = workload(n_bodies=len(pos), leaf_capacity=leaf_capacity)
        for build_tree in (wl._build_tree, wl._build_tree_reference):
            with pytest.raises(ValueError, match=rf"coincide.*leaf_capacity is {leaf_capacity}"):
                build_tree(pos)


class TestOctreeProperties:
    @given(positions())
    @settings(max_examples=25, deadline=None)
    def test_every_body_in_exactly_one_leaf(self, pos):
        wl = workload(n_bodies=len(pos))
        root = wl._build_tree(pos).root()
        seen: list[int] = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                seen.extend(node.bodies)
            else:
                assert node.bodies == []  # internal nodes hold no bodies
                stack.extend(node.children)
        assert sorted(seen) == list(range(len(pos)))

    @given(positions())
    @settings(max_examples=25, deadline=None)
    def test_children_inside_parent_bounds(self, pos):
        wl = workload(n_bodies=len(pos))
        root = wl._build_tree(pos).root()
        stack = [root]
        while stack:
            node = stack.pop()
            for child in node.children:
                for axis in range(3):
                    assert (
                        abs(child.center[axis] - node.center[axis])
                        <= node.half + 1e-9
                    )
                assert child.half <= node.half / 2 + 1e-9
                stack.append(child)

    @given(positions())
    @settings(max_examples=25, deadline=None)
    def test_bodies_inside_root_bounds(self, pos):
        wl = workload(n_bodies=len(pos))
        root = wl._build_tree(pos).root()
        for axis in range(3):
            assert (pos[:, axis] >= root.center[axis] - root.half - 1e-6).all()
            assert (pos[:, axis] <= root.center[axis] + root.half + 1e-6).all()

    @given(positions(), st.integers(min_value=0, max_value=47))
    @settings(max_examples=25, deadline=None)
    def test_traversal_partners_unique_and_exclude_self(self, pos, body):
        wl = workload(n_bodies=len(pos))
        root = wl._build_tree(pos).root()
        _visited, partners = wl._traverse(root, pos, body)
        assert body not in partners
        assert len(partners) == len(set(partners))


class TestMortonOrdering:
    @given(positions())
    @settings(max_examples=25, deadline=None)
    def test_is_a_permutation(self, pos):
        order = BarnesHutWorkload._morton_order(pos)
        assert sorted(order.tolist()) == list(range(len(pos)))

    def test_spatial_locality_of_consecutive_points(self):
        """Consecutive points in Morton order are, on average, much
        closer than random pairs — the property that makes contiguous
        chunks spatially compact (costzone-like)."""
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 1, size=(512, 3))
        order = BarnesHutWorkload._morton_order(pos)
        ordered = pos[order]
        consecutive = np.linalg.norm(np.diff(ordered, axis=0), axis=1).mean()
        shuffled = pos[rng.permutation(512)]
        random_pairs = np.linalg.norm(np.diff(shuffled, axis=0), axis=1).mean()
        assert consecutive < 0.5 * random_pairs
