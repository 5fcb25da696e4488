"""SOR: red-black successive over-relaxation (paper benchmark 1).

An ``n x n`` double matrix stored as ``n`` row objects (``double[]`` of
length ``n``, i.e. ``8n`` bytes — "each row at least several KB" for the
paper's 2K columns).  Threads own contiguous row blocks; every round has
a red and a black phase, each phase sweeping the thread's rows reading
the rows above and below (the near-neighbour sharing pattern) and
writing its own, with a global barrier after each phase.

This is the *row-coloured* red-black variant: a phase updates alternate
whole rows (half the cells each) rather than a checkerboard within every
row.  At object (row) granularity the two variants generate identical
sharing — each updated row reads its two neighbours — which is the level
this reproduction observes.

Sharing profile ground truth: thread t shares exactly its block-boundary
rows with threads t-1 and t+1 — a tridiagonal TCM.
"""

from __future__ import annotations

import numpy as np

from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.workloads.base import Workload, WorkloadSpec

#: simulated cost of relaxing one matrix cell (flops + loads + inlined
#: bounds/state checks on a JIT-compiled P4-era JVM), ns.  Calibrated so
#: a single-threaded 2K x 2K x 10-round run lands near the paper's
#: Table II baseline (~24 s).
CELL_COMPUTE_NS = 1150


class SORWorkload(Workload):
    """Red-black SOR over an ``n x n`` matrix of doubles."""

    def __init__(
        self,
        n: int = 2048,
        rounds: int = 10,
        n_threads: int = 8,
        seed: int = 0,
    ) -> None:
        super().__init__(n_threads=n_threads, seed=seed)
        if n < n_threads:
            raise ValueError(f"matrix of {n} rows cannot feed {n_threads} threads")
        self.n = n
        self.rounds = rounds
        self.row_ids: list[int] = []
        self.matrix_id: int | None = None

    def spec(self) -> WorkloadSpec:
        """Descriptive characteristics (Table I row)."""
        return WorkloadSpec(
            name="SOR",
            data_set=f"{self.n} x {self.n}",
            rounds=self.rounds,
            granularity="Coarse",
            object_size=f"each row {8 * self.n} bytes",
        )

    # ------------------------------------------------------------------

    def build(self, djvm: DJVM, *, placement: str = "block") -> None:
        """Define classes, allocate the object graph, spawn threads."""
        self._spawn(djvm, placement)
        reg = djvm.registry
        row_cls = reg.define("double[]", is_array=True, element_size=8)
        matrix_cls = reg.define("double[][]", is_array=True, element_size=4)

        # Rows are homed with their owning thread's node (the steady state
        # home migration reaches: each row has one dominant writer).
        owner_of_row = [0] * self.n
        for t in range(self.n_threads):
            for r in self.block_range(self.n, t, self.n_threads):
                owner_of_row[r] = self.node_of(t)
        self.row_ids = list(
            djvm.gos.allocate_many(
                np.full(self.n, row_cls.class_id), owner_of_row, lengths=self.n, sites="sor.rows"
            )
        )
        matrix = djvm.allocate(
            matrix_cls, self.node_of(0), length=self.n, refs=self.row_ids, site="sor.matrix"
        )
        self.matrix_id = matrix.obj_id

    # ------------------------------------------------------------------

    def rows_of(self, thread_id: int) -> range:
        """Row indices owned by one thread."""
        return self.block_range(self.n, thread_id, self.n_threads)

    def program(self, thread_id: int) -> P.CompiledProgram:
        """The thread's program, emitted as columns."""
        return self._generate(thread_id)

    def _generate(self, thread_id: int) -> P.CompiledProgram:
        assert self.matrix_id is not None, "build() must run first"
        rows = self.rows_of(thread_id)
        n = self.n
        half = n // 2
        row_ids = self.row_ids
        compute_ns = half * CELL_COMPUTE_NS
        refs = ((0, self.matrix_id),)
        out = P.ColumnEmitter()
        # The run() frame holds the matrix reference for the whole run
        # (the canonical stack invariant) and reads the row table first.
        out.call("SOR.run", 6, refs)
        out.ops((P.OP_READ,), self.matrix_id, len(rows), 1)
        # Each round replays the same red/black sweep: one body per
        # color (a phase frame around the rows of that color), emitted
        # once and repeated by reference; only the barrier after each
        # body changes.  Bodies: 0 = head + red, 1 = black, 2 = red.
        for barrier in range(min(3, 2 * self.rounds)):
            color = barrier % 2
            codes: list[int] = []
            args: list[int] = []
            elems: list[int] = []
            for r in rows:
                if r % 2 != color:
                    continue
                # Near-neighbour stencil: rows r-1 and r+1 are read.
                stencil = [row_ids[r - 1]] if r > 0 else []
                stencil.append(row_ids[r])
                if r < n - 1:
                    stencil.append(row_ids[r + 1])
                codes += [P.OP_READ] * len(stencil) + [P.OP_COMPUTE, P.OP_WRITE]
                args += stencil + [compute_ns, row_ids[r]]
                elems += [half] * len(stencil) + [0, half]
            codes = np.array(codes, dtype=np.uint8)
            out.call("SOR.phase", 4, refs)
            out.ops(codes, args, elems, (codes <= P.OP_WRITE).view(np.int8))
            out.ops((P.OP_RET, P.OP_BARRIER), (0, barrier))
        for barrier in range(3, 2 * self.rounds):
            out.repeat(2 - barrier % 2, P.OP_BARRIER, barrier)
        out.ops((P.OP_RET,))
        return out.program()
