"""Barnes-Hut hierarchical N-body (paper benchmark 2).

The paper's configuration: 4K bodies forming **two galaxies** separated
by ``distance`` (7.0) galaxy radii; each thread simulates a contiguous
chunk of bodies, so threads of the same galaxy share heavily (bodies and
their galaxy's octree cells) while cross-galaxy threads share only the
top of the tree — the block-structured inherent correlation map of
Fig. 1(a) that page-grain tracking destroys.

The simulation is real: Plummer-like galaxies are generated, a bounding
octree is rebuilt every round, per-body force traversals use the
standard opening criterion ``cell_size / dist < theta``, and positions
integrate forward between rounds.  What reaches the DJVM is the object
access stream of those traversals, aggregated per (thread, phase,
object) with repeat counts so op streams stay tractable at paper scale.

Object model (the classes of the paper's Table IV):

* ``Body`` (96 B) — one particle; refs its three ``Vect3`` vectors.
* ``Vect3`` (40 B) — position / velocity / acceleration vector.
* ``Cell`` (144 B) — internal octree node; refs its children.
* ``Leaf`` (56 B) — terminal node; refs a ``Body[]`` with its bodies.
* ``Body[]`` — reference arrays (the global body list and leaf lists).

The build side works on arrays, not per body: :meth:`_build_tree` splits
a whole tree level with one stable sort, :meth:`_plan_round` walks the
tree once for all bodies and derives every thread's access counts from
one visitor table, :meth:`_generate` emits each phase in bulk.  The
per-body formulation survives as :meth:`_build_tree_reference` and
:meth:`_plan_round_reference`: they are the *specifications* — nothing
at run time selects them, the tests require the array build to match
them bit for bit (tree geometry, leaf order, Counter insertion order),
because object ids and op streams — hence every simulated number —
follow from those orders.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.util.arrays import ranges
from repro.util.rng import seeded_rng
from repro.workloads.base import Workload, WorkloadSpec

#: simulated cost of one body-body or body-cell interaction (force terms
#: plus traversal bookkeeping on a P4-era JVM), ns.  Calibrated against
#: the paper's Table II/V single-thread baselines (53-94 s for 4K x 5).
INTERACTION_NS = 3_000
#: temp-frame churn: a fresh walk frame every this many emitted reads.
FRAME_CHURN_READS = 64
#: force arithmetic is interleaved as one COMPUTE per this many reads
#: (frames open on chunk boundaries: FRAME_CHURN_READS is a multiple).
COMPUTE_CHUNK_READS = 16
#: splits after which a cell is 2**-64 of the root: bodies still sharing
#: one coincide for every purpose of the tree, and the build gives up.
MAX_TREE_DEPTH = 64
#: octant code of a body relative to a cell centre: bit i set when the
#: body lies above the centre on axis i.
_OCTANT_BITS = np.array([1, 2, 4])
_AXES = np.arange(3)

#: one thread's reads in one round: the object ids in emission order and
#: how many of the thread's traversals visit each.
Plan = tuple[np.ndarray, np.ndarray]
#: one round: (root object id, every thread's plan, tree node count).
RoundPlan = tuple[int, list[Plan], int]
#: a node is homed by the owners of the first this many bodies beneath it.
HOME_SAMPLE_BODIES = 64


@dataclass
class _TreeNode:
    """One node of the build-side octree (pre-allocation)."""

    center: np.ndarray
    half: float
    bodies: list[int] = field(default_factory=list)
    children: list["_TreeNode"] = field(default_factory=list)
    is_leaf: bool = True
    #: filled at allocation: heap object ids.
    obj_id: int = -1
    arr_id: int = -1  # leaf body-array object
    #: aggregate mass position (approximated by centroid for traversal);
    #: kept as a plain tuple so the traversal hot loop avoids numpy calls.
    centroid: tuple[float, float, float] = (0.0, 0.0, 0.0)
    count: int = 0


@dataclass
class _Octree:
    """One round's octree as level-order arrays (what :meth:`_build_tree`
    returns).

    Node 0 is the root.  Node ``i``'s children are the ``n_children[i]``
    nodes from ``first_child[i]`` on, in ascending octant order; the
    bodies beneath it, ascending, are ``bodies[offsets[i] : offsets[i] +
    counts[i]]`` (a leaf's are its own).
    """

    centers: np.ndarray
    halves: np.ndarray
    centroids: np.ndarray
    counts: np.ndarray
    n_children: np.ndarray
    first_child: np.ndarray
    offsets: np.ndarray
    bodies: np.ndarray
    #: filled at allocation: each node's heap object id, and each leaf's
    #: body-array id (-1 for a cell).
    obj_id: np.ndarray | None = None
    arr_id: np.ndarray | None = None

    def stack_order(self) -> np.ndarray:
        """Node indices in stack-DFS order, last child first — the order
        :meth:`BarnesHutWorkload._traverse` meets them.  Reversed, it is
        the post-order (children left to right, then the parent)."""
        first = self.first_child.tolist()
        kids = self.n_children.tolist()
        order = []
        stack = [0]
        while stack:
            i = stack.pop()
            order.append(i)
            stack.extend(range(first[i], first[i] + kids[i]))
        return np.array(order)

    def root(self) -> _TreeNode:
        """The same tree as linked :class:`_TreeNode` objects (what the
        per-body reference functions walk), with the allocated ids."""
        nodes = [
            _TreeNode(center=c, half=h, centroid=tuple(m), count=k)
            for c, h, m, k in zip(
                self.centers, self.halves.tolist(), self.centroids.tolist(), self.counts.tolist()
            )
        ]
        bodies = self.bodies.tolist()
        for node, first, n_kids, start in zip(
            nodes, self.first_child.tolist(), self.n_children.tolist(), self.offsets.tolist()
        ):
            if n_kids:
                node.is_leaf = False
                node.children = nodes[first : first + n_kids]
            else:
                node.bodies = bodies[start : start + node.count]
        if self.obj_id is not None:
            for node, obj_id, arr_id in zip(nodes, self.obj_id.tolist(), self.arr_id.tolist()):
                node.obj_id, node.arr_id = obj_id, arr_id
        return nodes[0]


class BarnesHutWorkload(Workload):
    """Two-galaxy Barnes-Hut N-body simulation."""

    def __init__(
        self,
        n_bodies: int = 4096,
        rounds: int = 5,
        n_threads: int = 16,
        *,
        theta: float = 0.7,
        leaf_capacity: int = 8,
        galaxy_distance: float = 7.0,
        dt: float = 0.025,
        seed: int = 0,
    ) -> None:
        super().__init__(n_threads=n_threads, seed=seed)
        if n_bodies < n_threads:
            raise ValueError(f"{n_bodies} bodies cannot feed {n_threads} threads")
        if not 0 < theta < 2:
            raise ValueError(f"theta must be in (0, 2), got {theta}")
        if leaf_capacity < 1:
            raise ValueError(f"leaf capacity must be >= 1, got {leaf_capacity}")
        self.n_bodies = n_bodies
        self.rounds = rounds
        self.theta = theta
        self.leaf_capacity = leaf_capacity
        self.galaxy_distance = galaxy_distance
        self.dt = dt
        # Filled by build():
        self.body_ids: list[int] = []
        self.vect_ids: list[tuple[int, int, int]] = []  # (pos, vel, acc) per body
        self.bodies_arr_id: int = -1
        self.galaxy_of: np.ndarray | None = None
        self._round_plans: list[RoundPlan] = []

    def spec(self) -> WorkloadSpec:
        """Descriptive characteristics (Table I row)."""
        return WorkloadSpec(
            name="Barnes-Hut",
            data_set=f"{self.n_bodies} bodies",
            rounds=self.rounds,
            granularity="Fine",
            object_size="each body less than 100 bytes",
        )

    # ------------------------------------------------------------------
    # galaxy generation & body ordering
    # ------------------------------------------------------------------

    def _generate_galaxies(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions, velocities and galaxy labels for all bodies.

        Two Plummer-like clusters of equal population, centres separated
        by ``galaxy_distance`` cluster radii along x; each cluster gets a
        bulk drift plus internal rotation so the tree changes per round.
        """
        rng = seeded_rng(self.seed, "barnes_hut", "galaxies")
        n = self.n_bodies
        n0 = n // 2
        labels = np.zeros(n, dtype=np.int64)
        labels[n0:] = 1
        pos = np.empty((n, 3))
        vel = np.empty((n, 3))
        radius = 1.0
        centers = np.array(
            [[0.0, 0.0, 0.0], [self.galaxy_distance * radius, 0.0, 0.0]]
        )
        drift = np.array([[0.05, 0.02, 0.0], [-0.05, -0.02, 0.0]])
        for g, (lo, hi) in enumerate(((0, n0), (n0, n))):
            m = hi - lo
            r = radius * rng.standard_normal((m, 3)) * 0.35
            pos[lo:hi] = centers[g] + r
            # Solid-body-ish rotation about z plus bulk drift.
            omega = 0.6 if g == 0 else -0.6
            vel[lo:hi, 0] = -omega * r[:, 1] + drift[g, 0]
            vel[lo:hi, 1] = omega * r[:, 0] + drift[g, 1]
            vel[lo:hi, 2] = drift[g, 2] + 0.01 * rng.standard_normal(m)
        return pos, vel, labels

    @staticmethod
    def _morton_order(pos: np.ndarray) -> np.ndarray:
        """Spatial (Morton/Z-curve) ordering of points, the costzone-like
        ordering that makes contiguous chunks spatially compact."""
        mins = pos.min(axis=0)
        span = np.maximum(pos.max(axis=0) - mins, 1e-9)
        q = ((pos - mins) / span * 1023).astype(np.int64)  # 10 bits/axis

        def spread(v: np.ndarray) -> np.ndarray:
            v = v & 0x3FF
            v = (v | (v << 16)) & 0x030000FF
            v = (v | (v << 8)) & 0x0300F00F
            v = (v | (v << 4)) & 0x030C30C3
            v = (v | (v << 2)) & 0x09249249
            return v

        code = spread(q[:, 0]) | (spread(q[:, 1]) << 1) | (spread(q[:, 2]) << 2)
        return np.argsort(code, kind="stable")

    # ------------------------------------------------------------------
    # octree
    # ------------------------------------------------------------------

    def _coincident(self, count: int) -> ValueError:
        return ValueError(
            f"{count} bodies coincide (still in one octree cell after "
            f"{MAX_TREE_DEPTH} splits) but leaf_capacity is "
            f"{self.leaf_capacity}: raise leaf_capacity or perturb the bodies"
        )

    def _build_tree(self, pos: np.ndarray) -> _Octree:
        """Bounding octree over ``pos``, built one *level* at a time.

        Every body of every over-full cell of a level gets its octant
        code from one vector comparison; one stable sort on (cell,
        octant) then lays out the next level — children in ascending
        octant order, bodies in ascending index inside a child — which is
        the order :meth:`_build_tree_reference` produces body by body.
        Centres and halves are the same IEEE operations applied to whole
        levels; centroids are ``mean(axis=0)`` over cells *of equal
        population* stacked along a new axis, which numpy reduces row by
        row exactly as it does a single cell's ``pos[bodies].mean(axis=0)``.
        The levels stay arrays (:class:`_Octree`); :meth:`_Octree.root`
        links them into nodes for the reference functions.
        """
        lo, hi = pos.min(axis=0), pos.max(axis=0)
        centers = ((lo + hi) / 2)[None, :]
        halves = np.array([float(np.max(hi - lo) / 2) + 1e-9])
        counts = np.array([len(pos)])
        ids = np.arange(len(pos))
        # Per level: its cells' (centers, halves, counts, n_children) and
        # their bodies back to back, ascending inside a cell.
        levels = []
        while True:
            split = counts > self.leaf_capacity
            n_children = np.zeros(len(counts), dtype=np.int64)
            levels.append((centers, halves, counts, n_children, ids))
            if not split.any():
                break
            if len(levels) > MAX_TREE_DEPTH:
                raise self._coincident(int(counts.max()))
            parents = np.flatnonzero(split)
            parent_center = centers[parents]
            slot = np.repeat(np.arange(len(parents)), counts[parents])
            inner = ids[np.repeat(split, counts)]
            above = pos.take(inner, axis=0) > parent_center.take(slot, axis=0)
            key = slot * 8 + above @ _OCTANT_BITS
            order = np.argsort(key, kind="stable")
            key = key[order]
            starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
            child_key = key[starts]
            child_parent = child_key >> 3
            n_children[parents] = np.bincount(child_parent, minlength=len(parents))
            halves = (halves[parents] / 2)[child_parent]
            offset = np.where((child_key[:, None] >> _AXES) & 1, halves[:, None], -halves[:, None])
            centers = parent_center[child_parent] + offset
            counts = np.diff(np.append(starts, len(key)))
            ids = inner[order]

        centers, halves, counts, n_children, ids = (
            np.concatenate(column) for column in zip(*levels)
        )
        # A cell's bodies start where those of the cells before it (in
        # level order) end.
        offsets = np.cumsum(counts) - counts
        centroids = np.empty_like(centers)
        by_count = np.argsort(counts, kind="stable")
        cuts = np.flatnonzero(np.diff(counts[by_count])) + 1
        for group in np.split(by_count, cuts):
            rows = offsets[group] + np.arange(counts[group[0]])[:, None]
            centroids[group] = pos.take(ids.take(rows), axis=0).mean(axis=0)
        # Level order puts a cell's children right after the children of
        # every cell before it.
        first_child = 1 + np.cumsum(n_children) - n_children
        return _Octree(centers, halves, centroids, counts, n_children, first_child, offsets, ids)

    def _build_tree_reference(self, pos: np.ndarray) -> _TreeNode:
        """Reference builder: every body classified into its octant one
        at a time.  Kept as the specification :meth:`_build_tree` (seen
        through :meth:`_Octree.root`) must reproduce exactly — shape,
        child order, body order inside a leaf, and ``center`` / ``half``
        / ``centroid`` bit for bit."""
        center = (pos.min(axis=0) + pos.max(axis=0)) / 2
        half = float(np.max(pos.max(axis=0) - pos.min(axis=0)) / 2) + 1e-9
        root = _TreeNode(center=center, half=half, bodies=list(range(len(pos))))
        stack = [(root, 0)]
        while stack:
            node, depth = stack.pop()
            if len(node.bodies) <= self.leaf_capacity:
                node.is_leaf = True
                node.count = len(node.bodies)
                c = pos[node.bodies].mean(axis=0) if node.bodies else node.center
                node.centroid = (float(c[0]), float(c[1]), float(c[2]))
                continue
            if depth == MAX_TREE_DEPTH:
                raise self._coincident(len(node.bodies))
            node.is_leaf = False
            node.count = len(node.bodies)
            c = pos[node.bodies].mean(axis=0)
            node.centroid = (float(c[0]), float(c[1]), float(c[2]))
            buckets: dict[int, list[int]] = {}
            for b in node.bodies:
                octant = (
                    (pos[b, 0] > node.center[0])
                    | ((pos[b, 1] > node.center[1]) << 1)
                    | ((pos[b, 2] > node.center[2]) << 2)
                )
                buckets.setdefault(int(octant), []).append(b)
            node.bodies = []
            h = node.half / 2
            for octant, members in sorted(buckets.items()):
                offset = np.array(
                    [
                        h if octant & 1 else -h,
                        h if octant & 2 else -h,
                        h if octant & 4 else -h,
                    ]
                )
                child = _TreeNode(center=node.center + offset, half=h, bodies=members)
                node.children.append(child)
                stack.append((child, depth + 1))
        return root

    def _traverse(self, root: _TreeNode, pos: np.ndarray, b: int) -> tuple[list[_TreeNode], list[int]]:
        """Force traversal for body ``b``: returns (visited nodes,
        interacting body indices)."""
        visited: list[_TreeNode] = []
        partners: list[int] = []
        px, py, pz = float(pos[b, 0]), float(pos[b, 1]), float(pos[b, 2])
        theta = self.theta
        stack = [root]
        while stack:
            node = stack.pop()
            visited.append(node)
            if node.is_leaf:
                partners.extend(i for i in node.bodies if i != b)
                continue
            cx, cy, cz = node.centroid
            d = math.sqrt((cx - px) ** 2 + (cy - py) ** 2 + (cz - pz) ** 2) + 1e-12
            if (2 * node.half) / d < theta:
                continue  # far enough: the cell's aggregate suffices
            stack.extend(node.children)
        return visited, partners

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------

    def build(self, djvm: DJVM, *, placement: str = "block") -> None:
        """Define classes, allocate the object graph, spawn threads."""
        self._spawn(djvm, placement)
        reg = djvm.registry
        body_cls = reg.define("Body", 96)
        vect_cls = reg.define("Vect3", 40)
        cell_cls = reg.define("Cell", 144)
        leaf_cls = reg.define("Leaf", 56)
        arr_cls = reg.define("Body[]", is_array=True, element_size=4)

        pos, vel, labels = self._generate_galaxies()
        # Costzone-like assignment: bodies ordered by (galaxy, Morton) so
        # each thread's contiguous chunk is one spatially compact region
        # of one galaxy (threads split per galaxy when counts allow).
        order = np.lexsort((self._morton_order(pos).argsort(), labels))
        pos, vel, labels = pos[order], vel[order], labels[order]
        self.galaxy_of = labels

        self._owner = np.zeros(self.n_bodies, dtype=np.int64)
        for t in range(self.n_threads):
            self._owner[self.block_range(self.n_bodies, t, self.n_threads)] = t
        self._home_of = [self.node_of(t) for t in range(self.n_threads)]

        # Allocate bodies in index order (vectors interleaved with the
        # body, as a Java constructor would), homed at the owner's node.
        # Real BH code also allocates short-lived Vect3 temporaries in its
        # vector math; a jittered count per body reproduces that, which
        # keeps the Vect3 sequence-number stream from being an exact
        # 3-cycle (an exact cycle would defeat even a prime sampling gap
        # of 3: every sampled vector would be a position vector).
        alloc_rng = seeded_rng(self.seed, "barnes_hut", "transient_allocs")
        # One draw per body, in body order (the stream one draw at a time
        # would give).
        transients = alloc_rng.integers(0, 3, size=self.n_bodies)
        # Per body: position, velocity and acceleration vectors, the body
        # (referencing the three), then its transients — one batch.
        per_body = transients + 4
        at = np.cumsum(per_body) - per_body  # each body's first object
        vects = at[:, None] + np.arange(3)
        kind = np.full(int(per_body.sum()), 2)  # 0 vector, 1 body, 2 transient
        kind[vects] = 0
        kind[at + 3] = 1
        counts = np.zeros(kind.size, dtype=np.int64)
        counts[at + 3] = 3
        base = len(djvm.gos)
        djvm.gos.allocate_many(
            np.array([vect_cls.class_id, body_cls.class_id, vect_cls.class_id])[kind],
            np.repeat(np.array(self._home_of)[self._owner], per_body),
            refs=((vects + base).ravel(), counts),
            sites=[("bh.vect", "bh.body", "bh.transient")[k] for k in kind.tolist()],
        )
        self.body_ids = (at + base + 3).tolist()
        self.vect_ids = list(map(tuple, (vects + base).tolist()))
        bodies_arr = djvm.allocate(
            arr_cls, self.node_of(0), length=self.n_bodies, refs=self.body_ids,
            site="bh.bodies",
        )
        self.bodies_arr_id = bodies_arr.obj_id

        self._body_obj = at + base + 3
        self._pos_obj = vects[:, 0] + base

        # Precompute every round: integrate, rebuild the tree, allocate
        # its nodes, and aggregate each thread's traversal accesses.
        self._round_plans = []
        for _round in range(self.rounds):
            self._round_plans.append(self._round(djvm, pos, cell_cls, leaf_cls, arr_cls))
            pos = pos + vel * self.dt

    def _round(self, djvm: DJVM, pos: np.ndarray, cell_cls, leaf_cls, arr_cls) -> RoundPlan:
        """One round: its tree, allocated, and every thread's reads of it."""
        tree = self._build_tree(pos)
        root_id = self._allocate_tree(djvm, tree, cell_cls, leaf_cls, arr_cls)
        return root_id, self._plan_round(tree, pos), len(tree.counts)

    def _round_reference(self, djvm: DJVM, pos: np.ndarray, cell_cls, leaf_cls, arr_cls) -> RoundPlan:
        """:meth:`_round` from the per-body and per-node specifications
        (test-only, like each function it calls)."""
        root = self._build_tree_reference(pos)
        root_id, n_nodes = self._allocate_tree_reference(djvm, root, cell_cls, leaf_cls, arr_cls)
        return root_id, self._plan_round_reference(root, pos), n_nodes

    # ------------------------------------------------------------------
    # round planning (traversal aggregation)
    # ------------------------------------------------------------------

    def _plan_round_reference(self, root: _TreeNode, pos: np.ndarray) -> list[Plan]:
        """Reference planner: one :meth:`_traverse` per body, accumulated
        into per-thread access Counters and handed over in the planner's
        form (the Counter's keys and counts, in insertion order).  Kept as
        the specification that the vectorized :meth:`_plan_round` must
        reproduce exactly (including the order, which fixes the op-stream
        order :meth:`_generate` emits)."""
        per_thread = [Counter() for _ in range(self.n_threads)]
        for b in range(self.n_bodies):
            t = int(self._owner[b])
            visited, partners = self._traverse(root, pos, b)
            counter = per_thread[t]
            for node in visited:
                counter[node.obj_id] += 1
                if node.is_leaf and node.arr_id >= 0:
                    counter[node.arr_id] += 1
            for i in partners:
                counter[self.body_ids[i]] += 1
                # The interaction reads the partner's position vector.
                counter[self.vect_ids[i][0]] += 1
        return [
            (np.array(list(counter), dtype=np.int64), np.array(list(counter.values()), dtype=np.int64))
            for counter in per_thread
        ]

    def _plan_round(self, tree: _Octree, pos: np.ndarray) -> list[Plan]:
        """Array planner: one tree walk for *all* bodies at once.

        Instead of one pruned traversal per body, each opened cell hands
        its children one *visitor set*: the sorted bodies whose
        traversals pass its opening criterion (evaluated with the same
        IEEE double operations as :meth:`_traverse`, so the sets are
        bit-identical).  The walk only records which set reaches which
        node; everything per thread comes afterwards from one table —
        each set cut at the thread block boundaries gives, per (set,
        thread), how many of the thread's bodies visit and the first of
        them.

        Because pruning only removes whole subtrees, every body's visit
        sequence is the global stack-DFS order filtered to the nodes it
        visits.  So a thread first meets an object while walking the
        *first* of its bodies that visits it, at that object's place in
        the DFS order (leaf partners after all nodes): sorting a
        thread's entries by (first visiting body, phase, position)
        reconstructs the reference planner's Counter insertion order
        exactly, and the counts are the visitor multiplicities.
        """
        n = self.n_bodies
        n_threads = self.n_threads
        theta = self.theta
        coords = np.ascontiguousarray(pos.T)
        centroids = tree.centroids[:, :, None]
        spans = (2 * tree.halves).tolist()
        kids = tree.n_children.tolist()
        first_child = tree.first_child.tolist()

        # --- the walk: (node, visitor set) in stack-DFS order ------------
        visitor_sets = [np.arange(n)]
        visited, set_of = [], []
        stack = [(0, 0)]
        while stack:
            i, set_id = stack.pop()
            visited.append(i)
            set_of.append(set_id)
            if not kids[i]:
                continue
            v = visitor_sets[set_id]
            delta = coords.take(v, axis=1) - centroids[i]
            delta *= delta
            d = np.sqrt(delta[0] + delta[1] + delta[2]) + 1e-12
            kept = v[spans[i] / d >= theta]
            if kept.size:
                kept_id = len(visitor_sets)
                visitor_sets.append(kept)
                stack.extend((child, kept_id) for child in range(first_child[i], first_child[i] + kids[i]))
        visited = np.array(visited)

        # --- the visitor table: every set cut at the thread boundaries ---
        # Owners are block-wise non-decreasing, so keying body b of set s
        # as s * n + b makes the concatenated sets one sorted array that
        # answers every (set, boundary) and (set, member) query at once.
        bounds = np.arange(n_threads + 1) * n // n_threads  # block_range's cuts
        set_base = np.arange(len(visitor_sets)) * n
        set_members = np.concatenate(visitor_sets)
        set_keys = set_members + np.repeat(set_base, [len(v) for v in visitor_sets])
        # Sentinels keep reads at "one past the end" in range and unmatched.
        set_members = np.append(set_members, -1)
        set_keys = np.append(set_keys, len(visitor_sets) * n)
        cut = np.searchsorted(set_keys, set_base[:, None] + bounds)
        count = np.diff(cut, axis=1)
        first = set_members[cut[:, :-1]]

        # --- node entries: the node object, then a leaf's body array -----
        set_of_node = np.array(set_of)
        leaf_j = np.flatnonzero(tree.n_children[visited] == 0)
        node_j, node_t = np.nonzero(count[set_of_node])
        node_set = set_of_node[node_j]
        obj_key = tree.obj_id[visited]
        arr_key = tree.arr_id[visited]

        # --- leaf-member entries: partner body, then its position vector -
        leaves = visited[leaf_j]
        member = tree.bodies[ranges(tree.offsets[leaves], tree.counts[leaves])]
        member_set = np.repeat(set_of_node[leaf_j], tree.counts[leaves])
        member_count = count[member_set]
        member_first = first[member_set]
        # A member's own traversal skips itself: where it visits its leaf,
        # its thread has one visitor fewer, and the next one comes first
        # if the member was the first.
        member_key = set_base[member_set] + member
        at = np.searchsorted(set_keys, member_key)
        own = np.flatnonzero(set_keys[at] == member_key)
        own_t = self._owner[member[own]]
        member_count[own, own_t] -= 1
        was_first = member_first[own, own_t] == member[own]
        member_first[own[was_first], own_t[was_first]] = set_members[at[own[was_first]] + 1]
        member_i, member_t = np.nonzero(member_count)
        body_key = self._body_obj[member]
        vect_key = self._pos_obj[member]

        # --- per-thread emission order ------------------------------------
        # Each entry carries (key, companion key or -1 for none); the
        # companion (body array / position vector) directly follows.
        thread = np.concatenate((node_t, member_t))
        first_body = np.concatenate((first[node_set, node_t], member_first[member_i, member_t]))
        phase = np.repeat([0, 1], [len(node_t), len(member_t)])
        position = np.concatenate((node_j, member_i))
        keys = np.stack(
            (
                np.concatenate((obj_key[node_j], body_key[member_i])),
                np.concatenate((arr_key[node_j], vect_key[member_i])),
            ),
            axis=1,
        )
        counts = np.concatenate((count[node_set, node_t], member_count[member_i, member_t]))
        emit = np.lexsort((position, phase, first_body, thread))
        keys = keys[emit].ravel()
        present = keys >= 0
        ids = keys[present]
        counts = np.repeat(counts[emit], 2)[present]
        ends = np.cumsum(np.bincount(np.repeat(thread[emit], 2)[present], minlength=n_threads))
        return list(zip(np.split(ids, ends[:-1]), np.split(counts, ends[:-1])))

    # ------------------------------------------------------------------
    # tree allocation
    # ------------------------------------------------------------------

    def _allocate_tree(self, djvm: DJVM, tree: _Octree, cell_cls, leaf_cls, arr_cls) -> int:
        """Allocate heap objects for one round's tree and return the
        root's id.  Allocation runs in post-order — the reverse of the
        stack order — with a leaf's body array just before the leaf, so
        the page map interleaves subtrees.  Each node is homed at the
        node of its :meth:`_cell_owners` thread (the steady state home
        migration converges to).  The ids follow from that order before
        anything is allocated, so the tree is one ``allocate_many``."""
        order = tree.stack_order()
        post = order[::-1]
        kids = tree.n_children
        leaf = kids[post] == 0
        size = np.where(leaf, 2, 1)  # a leaf's body array, then the leaf
        start = np.cumsum(size) - size + len(djvm.gos)
        n_nodes = len(kids)
        obj_id = np.empty(n_nodes, dtype=np.int64)
        obj_id[post] = start + size - 1
        arr_id = np.full(n_nodes, -1, dtype=np.int64)
        arr_id[post[leaf]] = start[leaf]
        # Per object, in allocation order: a cell, or a leaf's array and
        # the leaf.  Each one's refs are a run of ``pool``: the children's
        # ids (level order), the bodies' ids (tree order), the arrays' ids.
        n_bodies = len(tree.bodies)
        node = np.repeat(post, size)
        is_arr = np.zeros(node.size, dtype=bool)
        is_arr[(start - start[0])[leaf]] = True
        is_leaf = np.repeat(leaf, size) & ~is_arr
        counts = np.where(is_arr, tree.counts[node], np.where(is_leaf, 1, kids[node]))
        pool = np.concatenate((obj_id, self._body_obj[tree.bodies], arr_id))
        first = np.where(
            is_arr,
            n_nodes + tree.offsets[node],
            np.where(is_leaf, n_nodes + n_bodies + node, tree.first_child[node]),
        )
        classes = np.where(
            is_arr, arr_cls.class_id, np.where(is_leaf, leaf_cls.class_id, cell_cls.class_id)
        )
        homes = np.array(self._home_of)[self._cell_owners(tree, order)]
        djvm.gos.allocate_many(
            classes,
            homes[node],
            lengths=np.where(is_arr, counts, 0),
            refs=(pool[ranges(first, counts)], counts),
            sites="bh.tree",
        )
        tree.obj_id = obj_id
        tree.arr_id = arr_id
        return int(obj_id[0])

    def _cell_owners(self, tree: _Octree, order: np.ndarray) -> np.ndarray:
        """Each node's home thread (level order): the one owning most of
        the first >= :data:`HOME_SAMPLE_BODIES` bodies a stack walk from
        the node meets, the first met winning ties —
        :meth:`_dominant_thread_reference`'s rule for all nodes at once.

        The walk meets whole leaves in stack ``order`` and a leaf's
        bodies ascending.  Lined up that way (``walk``), the bodies
        beneath any node are one contiguous run, and its sample is the
        run's shortest whole-leaf prefix of at least that many bodies.
        """
        counts = tree.counts
        is_leaf = tree.n_children == 0
        leaves = order[is_leaf[order]]
        walk = tree.bodies[ranges(tree.offsets[leaves], counts[leaves])]
        met = np.where(is_leaf[order], counts[order], 0)
        start = np.empty_like(counts)
        start[order] = np.cumsum(met) - met
        leaf_end = np.cumsum(counts[leaves])
        stop = np.append(leaf_end, walk.size)[np.searchsorted(leaf_end, start + HOME_SAMPLE_BODIES)]
        size = np.minimum(stop, start + counts) - start
        # One vote per sampled body, keyed (node, owner).
        n_threads = self.n_threads
        key = np.repeat(np.arange(len(counts)) * n_threads, size)
        key += self._owner[walk[ranges(start, size)]]
        votes = np.bincount(key, minlength=len(counts) * n_threads)
        first_met = np.full(votes.size, key.size)
        np.minimum.at(first_met, key, np.arange(key.size))
        # More votes win; among equals the smaller first position does.
        score = votes * (key.size + 1) - first_met
        return score.reshape(-1, n_threads).argmax(axis=1)

    def _dominant_thread_reference(self, node: _TreeNode) -> int:
        """Reference home rule, one node at a time: the most common owner
        among a leaf's bodies, or among the first >= 64 bodies a stack
        walk from a cell meets, the first met winning ties.  Kept as the
        specification of :meth:`_cell_owners`."""
        owner = self._owner.tolist()
        if node.is_leaf:
            owners = [owner[b] for b in node.bodies]
        else:
            owners = []
            stack = [node]
            while stack and len(owners) < HOME_SAMPLE_BODIES:
                cur = stack.pop()
                if cur.is_leaf:
                    owners += [owner[b] for b in cur.bodies]
                else:
                    stack.extend(cur.children)
        if not owners:
            return 0
        return max(dict.fromkeys(owners), key=owners.count)

    def _allocate_tree_reference(self, djvm: DJVM, root: _TreeNode, cell_cls, leaf_cls, arr_cls) -> tuple[int, int]:
        """Reference allocation: a recursive post-order walk homing each
        node by :meth:`_dominant_thread_reference`.  Kept as the
        specification of :meth:`_allocate_tree`; returns (root id, node
        count)."""
        count = 0

        def alloc(node: _TreeNode) -> int:
            nonlocal count
            count += 1
            home = self._home_of[self._dominant_thread_reference(node)]
            if node.is_leaf:
                refs = [self.body_ids[b] for b in node.bodies]
                if refs:
                    arr = djvm.allocate(arr_cls, home, length=max(len(refs), 1), refs=refs, site="bh.tree")
                    node.arr_id = arr.obj_id
                    leaf = djvm.allocate(leaf_cls, home, refs=[arr.obj_id], site="bh.tree")
                else:
                    leaf = djvm.allocate(leaf_cls, home, site="bh.tree")
                node.obj_id = leaf.obj_id
                return leaf.obj_id
            child_ids = [alloc(c) for c in node.children]
            cell = djvm.allocate(cell_cls, home, refs=child_ids, site="bh.tree")
            node.obj_id = cell.obj_id
            return cell.obj_id

        root_id = alloc(root)
        return root_id, count

    # ------------------------------------------------------------------
    # programs
    # ------------------------------------------------------------------

    def bodies_of(self, thread_id: int) -> range:
        """Body indices owned by one thread."""
        return self.block_range(self.n_bodies, thread_id, self.n_threads)

    def program(self, thread_id: int) -> P.CompiledProgram:
        """The thread's program, emitted as columns."""
        return self._generate(thread_id)

    def _generate(self, thread_id: int) -> P.CompiledProgram:
        own = self.bodies_of(thread_id)
        n_own = len(own)
        vect = np.asarray(self.vect_ids[own.start : own.stop], dtype=np.int64).reshape(n_own, 3)
        body_ids = np.asarray(self.body_ids[own.start : own.stop], dtype=np.int64)
        bodies_ref = ((0, self.bodies_arr_id),)
        tree_lock = 0
        # Phase C's per-body reads and writes are the same ops every round.
        advance = np.stack((body_ids, vect[:, 2], vect[:, 1], vect[:, 0]), axis=1).ravel()
        advance_codes = np.tile(np.array((P.OP_READ, P.OP_READ, P.OP_WRITE, P.OP_WRITE), dtype=np.uint8), n_own)
        out = P.ColumnEmitter()
        out.call("BarnesHut.run", 6, bodies_ref)
        out.ops((P.OP_READ,), args=self.bodies_arr_id, n_elems=n_own, repeat=1, elem_off=own[0])
        for rnd, (root_id, per_thread, _n_nodes) in enumerate(self._round_plans):
            # --- phase A: tree build (lock-serialized insertions) --------
            out.call("BarnesHut.maketree", 4, ((0, root_id),))
            out.ops(np.zeros(n_own, dtype=np.uint8), args=body_ids, n_elems=1, repeat=1)
            # Insertion path writes: the cells along each own body's path;
            # approximated by the nodes this thread's traversals meet
            # (paths share the tree's upper levels).
            out.ops(
                (P.OP_ACQUIRE, P.OP_WRITE, P.OP_COMPUTE, P.OP_RELEASE, P.OP_RET, P.OP_BARRIER),
                args=(tree_lock, root_id, n_own * INTERACTION_NS, tree_lock, 0, 3 * rnd),
                n_elems=(0, 1, 0, 0, 0, 0),
                repeat=(0, n_own, 0, 0, 0, 0),
            )
            # --- phase B: force computation ------------------------------
            out.call("BarnesHut.computeForces", 6, ((0, root_id), (1, self.bodies_arr_id)))
            self._force_reads(out, *per_thread[thread_id])
            # Acceleration writes to own bodies' acc vectors.
            out.ops(np.ones(n_own, dtype=np.uint8), args=vect[:, 2], n_elems=1, repeat=1)
            out.ops((P.OP_RET, P.OP_BARRIER), args=(0, 3 * rnd + 1))
            # --- phase C: position integration ---------------------------
            out.call("BarnesHut.advance", 4, bodies_ref)
            out.ops(advance_codes, args=advance, n_elems=1, repeat=1)
            out.ops(
                (P.OP_COMPUTE, P.OP_RET, P.OP_BARRIER),
                args=(n_own * INTERACTION_NS, 0, 3 * rnd + 2),
            )
        out.ops((P.OP_RET,))
        return out.program()

    @staticmethod
    def _force_reads(out: P.ColumnEmitter, ids: np.ndarray, counts: np.ndarray) -> None:
        """Emit one thread-round's force reads: each object the thread's
        traversals visit, read ``count`` times in all.

        Each object's accesses come in two interleaved passes so an
        object visited by many traversals is seen both early and late in
        the interval — the temporal spread real traversals have, which
        sticky-set footprinting depends on.  Objects visited once appear
        in the first pass only.  Every ``COMPUTE_CHUNK_READS`` reads are
        followed by their force arithmetic (interleaved with the
        accesses, as the real traversal does, chunked to bound op
        count), and every ``FRAME_CHURN_READS`` reads open a new
        ``walkSub`` frame."""
        again = counts > 1
        reps = np.concatenate(((counts + 1) // 2, (counts // 2)[again]))
        objs = np.concatenate((ids, ids[again]))
        n_reads = len(objs)
        if not n_reads:
            return
        lo = np.arange(0, n_reads, COMPUTE_CHUNK_READS)
        size = np.minimum(n_reads - lo, COMPUTE_CHUNK_READS)
        frames = lo % FRAME_CHURN_READS == 0
        # Before a chunk: a frame's RET (not the first) and CALL.
        head = frames * (1 + (lo > 0))
        chunk_len = head + size + 1
        chunk_at = np.cumsum(chunk_len) - chunk_len
        n = int(chunk_len.sum()) + 1  # the last frame's RET
        codes = np.zeros(n, dtype=np.uint8)  # READ
        args = np.zeros(n, dtype=np.int64)
        elems = np.zeros(n, dtype=np.int64)
        repeat = np.zeros(n, dtype=np.int64)
        chunk = np.arange(n_reads) // COMPUTE_CHUNK_READS
        at = np.arange(n_reads) + (chunk_at + head - lo)[chunk]
        args[at] = objs
        elems[at] = 1
        repeat[at] = reps
        compute_at = chunk_at + head + size
        codes[compute_at] = P.OP_COMPUTE
        args[compute_at] = np.add.reduceat(reps, lo) * INTERACTION_NS
        call_at = chunk_at[frames] + head[frames] - 1
        codes[call_at] = P.OP_CALL
        elems[call_at] = 3
        codes[call_at[1:] - 1] = P.OP_RET
        codes[-1] = P.OP_RET
        base = out.n_ops
        for k, oid in zip(call_at.tolist(), objs[lo[frames]].tolist()):
            out.side[base + k] = ("BarnesHut.walkSub", ((0, oid),))
        out.ops(codes, args, elems, repeat)
