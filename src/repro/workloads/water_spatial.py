"""Water-Spatial molecular dynamics (paper benchmark 3).

Molecules live in a 3D grid of cells (spatial decomposition); each
thread owns a contiguous slab of cells and each round computes
interactions between its molecules and those in the 26-neighbourhood
(within cutoff), then integrates positions — molecules drift between
cells over time, giving the "evolving load distribution" the paper
cites.  Sharing is medium-grained (each molecule ~512 bytes across its
scalar part and coordinate array) with a near-neighbour 3D-box pattern.

Object model:

* ``Molecule`` (424 B) — scalar part; refs its coordinate array.
* ``double[]`` (9 doubles = 72 B payload) — per-molecule atom coords.
* ``Cell`` (64 B) — one grid box; refs its ``Molecule[]`` list.
* ``Molecule[]`` — per-cell membership array, rewritten when molecules
  move between cells.

Synchronization discipline (mirrors the SPLASH-2 original): the force
phase only *reads* shared state — each thread computes its own
molecules' forces from neighbour positions into thread-private
accumulators (not modelled as shared accesses) — and positions are
written once per round, in the integrate phase after the force barrier.
Cell membership arrays are likewise updated only by the cell's owning
thread (departures by the old cell's owner, arrivals by the new cell's
owner), so every conflicting access pair is separated by a barrier and
the workload is data-race-free under the happens-before model of
:mod:`repro.checks.racedetect`.
"""

from __future__ import annotations

import numpy as np

from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.util.arrays import ranges
from repro.util.rng import seeded_rng
from repro.workloads.base import Workload, WorkloadSpec

#: simulated cost of one molecule-pair interaction (all atom-atom force
#: terms of a water potential), ns.  Calibrated against the paper's
#: Table II single-thread baseline (~29 s for 512 molecules x 5 rounds).
PAIR_COMPUTE_NS = 87_000
#: fraction of a cell's linear size a molecule moves per round (keeps
#: migrations between cells occasional but present).
DRIFT_STEP = 0.18


class WaterSpatialWorkload(Workload):
    """Spatial-decomposition water simulation."""

    def __init__(
        self,
        n_molecules: int = 512,
        rounds: int = 5,
        n_threads: int = 8,
        *,
        grid: int = 4,
        seed: int = 0,
    ) -> None:
        super().__init__(n_threads=n_threads, seed=seed)
        if grid < 1:
            raise ValueError(f"grid must be >= 1, got {grid}")
        n_cells = grid**3
        if n_cells < n_threads:
            raise ValueError(f"{n_cells} cells cannot feed {n_threads} threads")
        self.n_molecules = n_molecules
        self.rounds = rounds
        self.grid = grid
        self.mol_ids: list[int] = []
        self.coord_ids: list[int] = []
        self.cell_obj_ids: list[int] = []
        self.cell_arr_ids: list[int] = []
        #: per-round: cell membership (cell -> molecule indices) and moves
        #: (departing-cell owner -> list of (mol, from_cell, to_cell)).
        self._rounds_members: list[list[list[int]]] = []
        self._rounds_moves: list[dict[int, list[tuple[int, int, int]]]] = []
        #: per-round: arrival updates (new-cell owner -> list of new_cell)
        #: — membership arrays are only ever written by their owning
        #: thread, so cross-slab moves stay race-free.
        self._rounds_arrivals: list[dict[int, list[int]]] = []
        #: per-round cell membership as arrays: the molecules in cell
        #: order (ascending within a cell) and each cell's first index
        #: and count in it.
        self._rounds_flat: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: the 26-neighbourhoods, concatenated, with each cell's first
        #: index and count.
        self._neighbours: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        #: each cell's ``cellPairs`` frame refs.
        self._cell_refs: list[tuple] = []

    def spec(self) -> WorkloadSpec:
        """Descriptive characteristics (Table I row)."""
        return WorkloadSpec(
            name="Water-Spatial",
            data_set=f"{self.n_molecules} molecules",
            rounds=self.rounds,
            granularity="Medium",
            object_size="each molecule about 512 bytes",
        )

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    def cell_index(self, c: tuple[int, int, int]) -> int:
        """Flatten 3D cell coordinates to an index."""
        x, y, z = c
        return (x * self.grid + y) * self.grid + z

    def cell_coords(self, idx: int) -> tuple[int, int, int]:
        """Unflatten a cell index to 3D coordinates."""
        z = idx % self.grid
        y = (idx // self.grid) % self.grid
        x = idx // (self.grid * self.grid)
        return x, y, z

    def neighbours(self, idx: int) -> list[int]:
        """The 26-neighbourhood (non-periodic) of a cell, plus itself."""
        x, y, z = self.cell_coords(idx)
        out = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    nx, ny, nz = x + dx, y + dy, z + dz
                    if 0 <= nx < self.grid and 0 <= ny < self.grid and 0 <= nz < self.grid:
                        out.append(self.cell_index((nx, ny, nz)))
        return out

    def cells_of(self, thread_id: int) -> range:
        """Contiguous slab of cells owned by one thread (x-major order =
        slabs along the x axis)."""
        return self.block_range(self.grid**3, thread_id, self.n_threads)

    def owner_of_cell(self, idx: int) -> int:
        """Thread owning a grid cell."""
        n_cells = self.grid**3
        if not 0 <= idx < n_cells:
            raise IndexError(f"cell {idx} out of range 0..{n_cells - 1}")
        # The last thread whose block starts (t * n_cells // n_threads,
        # as block_range cuts) at or below idx.
        return ((idx + 1) * self.n_threads - 1) // n_cells

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------

    def build(self, djvm: DJVM, *, placement: str = "block") -> None:
        """Define classes, allocate the object graph, spawn threads."""
        self._spawn(djvm, placement)
        reg = djvm.registry
        mol_cls = reg.define("Molecule", 424)
        coord_cls = reg.define("double[]", is_array=True, element_size=8)
        cell_cls = reg.define("WSCell", 64)
        marr_cls = reg.define("Molecule[]", is_array=True, element_size=4)

        n_cells = self.grid**3
        rng = seeded_rng(self.seed, "water_spatial", "positions")
        # Continuous positions in [0, grid)^3; derive cell membership.
        pos = rng.uniform(0, self.grid, size=(self.n_molecules, 3))
        # A slow, spatially coherent drift field: molecules flow towards
        # +x over the run, shifting load between thread slabs.
        drift = np.array([DRIFT_STEP, 0.0, 0.0])
        jitter_rng = seeded_rng(self.seed, "water_spatial", "jitter")

        def cell_of(p: np.ndarray) -> np.ndarray:
            idx = np.clip(p.astype(np.int64), 0, self.grid - 1)
            return (idx[:, 0] * self.grid + idx[:, 1]) * self.grid + idx[:, 2]

        def membership(cells: np.ndarray) -> tuple[list[list[int]], tuple]:
            """Each cell's molecules, ascending, as lists and flattened."""
            flat = np.argsort(cells, kind="stable")
            count = np.bincount(cells, minlength=n_cells)
            start = np.cumsum(count) - count
            return [part.tolist() for part in np.split(flat, start[1:])], (flat, start, count)

        cells = cell_of(pos)
        members0, flat0 = membership(cells)

        # Molecules homed at the node of the thread owning their initial
        # cell; allocated in cell order (a locality-aware initialization).
        mol_home = [0] * self.n_molecules
        for c in range(n_cells):
            owner = self.owner_of_cell(c)
            for m in members0[c]:
                mol_home[m] = self.node_of(owner)
        # Per molecule, in cell order: its coordinates, then the molecule
        # (referencing them).
        gos = djvm.gos
        order = flat0[0]
        pairs = np.arange(2 * self.n_molecules).reshape(-1, 2) + len(gos)
        mol_ids = np.empty(self.n_molecules, dtype=np.int64)
        mol_ids[order] = pairs[:, 1]
        coord_ids = np.empty(self.n_molecules, dtype=np.int64)
        coord_ids[order] = pairs[:, 0]
        gos.allocate_many(
            np.tile([coord_cls.class_id, mol_cls.class_id], self.n_molecules),
            np.repeat(np.array(mol_home)[order], 2),
            lengths=np.tile([9, 0], self.n_molecules),
            refs=(pairs[:, 0], np.tile([0, 1], self.n_molecules)),
            sites=["ws.coords", "ws.mol"] * self.n_molecules,
        )
        self.mol_ids = mol_ids.tolist()
        self.coord_ids = coord_ids.tolist()
        # Per cell: its molecule array, then the cell (referencing it).
        count = flat0[2]
        cell_pairs = np.arange(2 * n_cells).reshape(-1, 2) + len(gos)
        homes = [self.node_of(self.owner_of_cell(c)) for c in range(n_cells)]
        gos.allocate_many(
            np.tile([marr_cls.class_id, cell_cls.class_id], n_cells),
            np.repeat(homes, 2),
            lengths=np.stack((np.maximum(count, 1), np.zeros(n_cells, np.int64)), 1).ravel(),
            refs=(
                # each cell's molecules (ascending), then its array
                np.insert(pairs[:, 1], np.cumsum(count), cell_pairs[:, 0]),
                np.stack((count, np.ones(n_cells, np.int64)), 1).ravel(),
            ),
            sites="ws.cell",
        )
        self.cell_arr_ids = cell_pairs[:, 0].tolist()
        self.cell_obj_ids = cell_pairs[:, 1].tolist()

        # Precompute per-round membership and inter-cell moves.
        self._rounds_members = []
        self._rounds_flat = []
        self._rounds_moves = []
        self._rounds_arrivals = []
        members, flat = members0, flat0
        for _round in range(self.rounds):
            self._rounds_members.append(members)
            self._rounds_flat.append(flat)
            pos = pos + drift + 0.05 * jitter_rng.standard_normal(pos.shape)
            pos = np.clip(pos, 0.0, self.grid - 1e-9)
            new_cells = cell_of(pos)
            moves: dict[int, list[tuple[int, int, int]]] = {}
            arrivals: dict[int, list[int]] = {}
            moved = np.flatnonzero(new_cells != cells)
            for m, old_c, new_c in zip(moved.tolist(), cells[moved].tolist(), new_cells[moved].tolist()):
                moves.setdefault(self.owner_of_cell(old_c), []).append((m, old_c, new_c))
                arrivals.setdefault(self.owner_of_cell(new_c), []).append(new_c)
            self._rounds_moves.append(moves)
            self._rounds_arrivals.append(arrivals)
            members, flat = membership(new_cells)
            cells = new_cells

        # The neighbourhoods as arrays for _generate.
        self._neighbours = _flatten([self.neighbours(c) for c in range(n_cells)])
        self._cell_refs = [((0, cid),) for cid in self.cell_obj_ids]

    # ------------------------------------------------------------------
    # programs
    # ------------------------------------------------------------------

    def program(self, thread_id: int) -> P.CompiledProgram:
        """The thread's program, emitted as columns."""
        return self._generate(thread_id)

    def _generate(self, thread_id: int) -> P.CompiledProgram:
        own_cells = np.asarray(self.cells_of(thread_id))
        anchor = ((0, self.cell_obj_ids[int(own_cells[0])]),)
        mol_ids = np.asarray(self.mol_ids)
        coord_ids = np.asarray(self.coord_ids)
        cell_arr_ids = self.cell_arr_ids
        out = P.ColumnEmitter()
        out.call("Water.run", 6, anchor)
        for rnd in range(self.rounds):
            # --- force phase -------------------------------------------
            out.call("Water.interf", 5, anchor)
            self._force_phase(out, own_cells, rnd, mol_ids, coord_ids)
            out.ops((P.OP_RET, P.OP_BARRIER), args=(0, 2 * rnd))

            # --- integration + cell reassignment -------------------------
            out.call("Water.advance", 4, anchor)
            flat, start, count = self._rounds_flat[rnd]
            mols = flat[ranges(start[own_cells], count[own_cells])]
            out.ops(
                np.tile(np.array((P.OP_READ, P.OP_WRITE), dtype=np.uint8), len(mols)),
                args=np.stack((mol_ids[mols], coord_ids[mols]), axis=1).ravel(),
                n_elems=np.tile((1, 9), len(mols)),
                repeat=1,
            )
            # Membership arrays are written only by their owning thread:
            # the departing side drops the molecule from its own cell's
            # array, the receiving side appends it to its own — two
            # single-owner writes instead of one thread writing both.
            writes = []
            for m, old_c, _new_c in self._rounds_moves[rnd].get(thread_id, []):
                writes += (cell_arr_ids[old_c], self.mol_ids[m])
            writes += [cell_arr_ids[c] for c in self._rounds_arrivals[rnd].get(thread_id, [])]
            out.ops([P.OP_WRITE] * len(writes), args=writes, n_elems=1, repeat=1)
            out.ops((P.OP_RET, P.OP_BARRIER), args=(0, 2 * rnd + 1))
        out.ops((P.OP_RET,))
        return out.program()

    def _force_phase(self, out: P.ColumnEmitter, own_cells: np.ndarray, rnd: int, mol_ids, coord_ids) -> None:
        """Emit one thread-round's force phase in one vectorized pass.

        Per own cell with molecules: a ``cellPairs`` frame reading the
        cell and its membership array, then per non-empty neighbour cell
        (itself included, in neighbourhood order) the neighbour's cell
        and membership array (not for itself) and each of its molecules
        (scalar part + coordinates), read once per own molecule pairing
        (aggregated into ``repeat``), then the pair arithmetic.  Forces
        accumulate into thread-private storage (owner computes all of
        its molecules' terms), so the force phase performs no shared
        writes: neighbour coordinate reads here race-freely precede the
        integrate-phase writes on the other side of the barrier."""
        flat, start, count = self._rounds_flat[rnd]
        nb_flat, nb_start, nb_count = self._neighbours
        cells = own_cells[count[own_cells] > 0]
        # (cell, neighbour) pairs in emission order, empty neighbours dropped.
        pair_nb = nb_flat[ranges(nb_start[cells], nb_count[cells])]
        pair_k = np.repeat(np.arange(len(cells)), nb_count[cells])
        keep = count[pair_nb] > 0
        pair_nb, pair_k = pair_nb[keep], pair_k[keep]
        own = pair_nb == cells[pair_k]
        n_own = count[cells][pair_k]
        reps = np.where(own, np.maximum(n_own - 1, 1), n_own)
        n_mols = count[pair_nb]
        head = np.where(own, 0, 2)
        pair_len = head + 2 * n_mols
        # Each cell: CALL, its cell and array reads, its pairs, COMPUTE, RET.
        first_pair = np.flatnonzero(np.diff(pair_k, prepend=-1))
        cell_len = 5 + np.add.reduceat(pair_len, first_pair)
        cell_at = np.cumsum(cell_len) - cell_len
        pair_at = np.cumsum(pair_len) - pair_len
        pair_at += cell_at[pair_k] + 3 - pair_at[first_pair][pair_k]
        n = int(cell_len.sum())
        codes = np.zeros(n, dtype=np.uint8)  # READ
        args = np.zeros(n, dtype=np.int64)
        elems = np.ones(n, dtype=np.int64)
        repeat = np.ones(n, dtype=np.int64)
        cell_obj = np.asarray(self.cell_obj_ids)
        cell_arr = np.asarray(self.cell_arr_ids)
        codes[cell_at] = P.OP_CALL
        elems[cell_at] = 3
        repeat[cell_at] = 0
        args[cell_at + 1] = cell_obj[cells]
        args[cell_at + 2] = cell_arr[cells]
        elems[cell_at + 2] = count[cells]
        other = np.flatnonzero(~own)
        args[pair_at[other]] = cell_obj[pair_nb[other]]
        args[pair_at[other] + 1] = cell_arr[pair_nb[other]]
        elems[pair_at[other] + 1] = n_mols[other]
        # Each neighbour molecule is read (scalar + coords) once per own
        # molecule pairing; aggregate repeats.
        mols = flat[ranges(start[pair_nb], n_mols)]
        mol_pair = np.repeat(np.arange(len(pair_nb)), n_mols)
        at = (pair_at + head)[mol_pair] + 2 * ranges(np.zeros_like(n_mols), n_mols)
        args[at] = mol_ids[mols]
        args[at + 1] = coord_ids[mols]
        elems[at + 1] = 9
        repeat[at] = repeat[at + 1] = reps[mol_pair]
        end = cell_at + cell_len
        codes[end - 2] = P.OP_COMPUTE
        args[end - 2] = np.add.reduceat(reps * n_mols, first_pair) * PAIR_COMPUTE_NS
        codes[end - 1] = P.OP_RET
        elems[end - 2] = elems[end - 1] = 0
        repeat[end - 2] = repeat[end - 1] = 0
        side = self._cell_refs
        for k, c in zip((cell_at + out.n_ops).tolist(), cells.tolist()):
            out.side[k] = ("Water.cellPairs", side[c])
        out.ops(codes, args, elems, repeat)


def _flatten(lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lists as one array plus each list's first index and length."""
    count = np.array([len(x) for x in lists], dtype=np.int64)
    flat = np.array([v for x in lists for v in x], dtype=np.int64)
    return flat, np.cumsum(count) - count, count
