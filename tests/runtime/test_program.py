"""Tests for the op-stream format and builder."""

from repro.checks.staticflow import verify_ops
from repro.runtime import program as P
from repro.runtime.program import ProgramBuilder


def messages(ops) -> list[str]:
    """The full-tier IR verifier's findings on ``ops``, as messages."""
    return [p.message for p in verify_ops(ops)]


class TestConstructors:
    def test_read_defaults(self):
        assert P.read(5) == (P.OP_READ, 5, 1, 1, 0)

    def test_write_fields(self):
        assert P.write(5, n_elems=3, repeat=2, elem_off=7) == (P.OP_WRITE, 5, 3, 2, 7)

    def test_call_refs_tuple(self):
        op = P.call("m", 4, refs=[(0, 9)])
        assert op == (P.OP_CALL, "m", 4, ((0, 9),))

    def test_sync_ops(self):
        assert P.acquire(3) == (P.OP_ACQUIRE, 3)
        assert P.release(3) == (P.OP_RELEASE, 3)
        assert P.barrier(2) == (P.OP_BARRIER, 2)


class TestProgramBuilder:
    def test_chaining_builds_list(self):
        ops = (
            ProgramBuilder()
            .call("main", 2)
            .read(0)
            .write(0)
            .compute(10)
            .setslot(0, 5)
            .barrier(0)
            .ret()
            .ops()
        )
        assert [op[0] for op in ops] == [
            P.OP_CALL,
            P.OP_READ,
            P.OP_WRITE,
            P.OP_COMPUTE,
            P.OP_SETSLOT,
            P.OP_BARRIER,
            P.OP_RET,
        ]

    def test_len_and_iter(self):
        b = ProgramBuilder().read(0).read(1)
        assert len(b) == 2
        assert len(list(b)) == 2

    def test_extend(self):
        b = ProgramBuilder().extend([P.read(0), P.ret()])
        assert len(b) == 2


class TestValidateProgram:
    """Structural well-formedness, as the IR verifier's full tier
    reports it."""

    def test_valid_program(self):
        ops = ProgramBuilder().call("m", 2).read(0).ret().ops()
        assert verify_ops(ops) == []

    def test_unbalanced_ret(self):
        assert any("RET" in p for p in messages([P.ret()]))

    def test_unpopped_frames(self):
        assert any("unpopped" in p for p in messages([P.call("m", 2)]))

    def test_setslot_outside_frame(self):
        assert any("SETSLOT" in p for p in messages([P.setslot(0, 1)]))

    def test_double_acquire(self):
        probs = messages([P.acquire(1), P.acquire(1), P.release(1), P.release(1)])
        assert any("already held" in p for p in probs)

    def test_unreleased_lock(self):
        assert any("holding locks" in p for p in messages([P.acquire(2)]))

    def test_release_unheld(self):
        assert any("not held" in p for p in messages([P.release(9)]))


class TestWorkloadProgramsAreValid:
    """Every shipped workload must emit structurally valid op streams."""

    def test_sor(self):
        from repro.runtime.djvm import DJVM
        from repro.sim.costs import CostModel
        from repro.workloads import SORWorkload

        wl = SORWorkload(n=64, rounds=2, n_threads=4)
        wl.build(DJVM(4, costs=CostModel.fast_test()))
        for t in range(4):
            assert verify_ops(list(wl.program(t))) == []

    def test_barnes_hut(self):
        from repro.runtime.djvm import DJVM
        from repro.sim.costs import CostModel
        from repro.workloads import BarnesHutWorkload

        wl = BarnesHutWorkload(n_bodies=128, rounds=2, n_threads=4)
        wl.build(DJVM(4, costs=CostModel.fast_test()))
        for t in range(4):
            assert verify_ops(list(wl.program(t))) == []

    def test_water_spatial(self):
        from repro.runtime.djvm import DJVM
        from repro.sim.costs import CostModel
        from repro.workloads import WaterSpatialWorkload

        wl = WaterSpatialWorkload(n_molecules=64, rounds=2, n_threads=4)
        wl.build(DJVM(4, costs=CostModel.fast_test()))
        for t in range(4):
            assert verify_ops(list(wl.program(t))) == []


class TestCompiledProgramEdgeCases:
    """IR edge cases the static analyses must handle without blowing up."""

    def test_empty_program(self):
        from repro.runtime.program import compile_program

        prog = compile_program([])
        assert prog.n_ops == 0
        assert prog.codes == b""
        assert prog.sync_points() == []
        assert prog.vector_runs() == {}
        assert verify_ops(prog) == []

    def test_single_segment_thread(self):
        """A thread with no sync ops at all is one segment."""
        from repro.runtime.program import compile_program

        ops = ProgramBuilder().call("m", 2).read(0).write(0).ret().ops()
        prog = compile_program(ops)
        assert prog.sync_points() == []
        assert verify_ops(prog) == []

    def test_back_to_back_barriers(self):
        """Adjacent barriers produce empty segments, not bogus ones."""
        from repro.runtime.program import compile_program

        ops = [P.barrier(0), P.barrier(1), P.barrier(2)]
        prog = compile_program(ops)
        assert prog.sync_points() == [(0, P.OP_BARRIER), (1, P.OP_BARRIER), (2, P.OP_BARRIER)]

    def test_max_opcode_id_accepted(self):
        """OP_BARRIER (8) is the largest opcode and must compile."""
        from repro.runtime.program import compile_program

        prog = compile_program([P.barrier(0)])
        assert prog.codes == bytes([P.OP_BARRIER])

    def test_opcode_past_range_rejected(self):
        import pytest

        from repro.runtime.program import compile_program

        with pytest.raises(ValueError, match="unknown opcode"):
            compile_program([(P.OP_BARRIER + 1, 0)])

    def test_non_int_opcode_rejected(self):
        import pytest

        from repro.runtime.program import compile_program

        with pytest.raises(TypeError):
            compile_program([P.read(1), ("READ", 1, 1, 1, 0)])

    def test_sync_points_mixed_stream(self):
        from repro.runtime.program import compile_program

        ops = [
            P.call("m", 2),
            P.acquire(0),
            P.read(1),
            P.release(0),
            P.barrier(0),
            P.ret(),
        ]
        prog = compile_program(ops)
        assert prog.sync_points() == [
            (1, P.OP_ACQUIRE),
            (3, P.OP_RELEASE),
            (4, P.OP_BARRIER),
        ]

    def test_compile_is_idempotent_and_preserves_verified_flag(self):
        from repro.runtime.program import compile_program

        prog = compile_program([P.read(0)])
        prog._verified = True
        assert compile_program(prog) is prog
        assert compile_program(prog)._verified


class TestVectorRunInterning:
    """``vector_runs()`` keys access runs by content: every occurrence
    of a distinct body of a compiled program maps to its one row of the
    program's lane table, rows numbered in order of first occurrence."""

    @staticmethod
    def burst(base: int, n: int = 8) -> list:
        return [P.read(base + j) if j % 3 else P.write(base + j) for j in range(n)]

    def compiled(self):
        from repro.runtime.program import compile_program

        a, b = self.burst(0), self.burst(100)
        # a | a (fresh op tuples) | b | a: three occurrences of one body
        # and a singleton, every one its own maximal span.
        ops = [*a, P.barrier(0), *[(*op,) for op in a], P.barrier(1)]
        ops += [*b, P.acquire(0), P.release(0), *a, P.barrier(2)]
        return compile_program(ops), len(a)

    def test_equal_bodies_share_one_run(self):
        prog, n = self.compiled()
        runs = prog.vector_runs()
        assert sorted(runs) == [0, n + 1, 2 * (n + 1), 3 * (n + 1) + 1]
        starts = sorted(runs)
        first, second, single, third = (runs[pc] for pc in starts)
        assert first == second == third == (0, n)
        assert single == (1, n)
        assert tuple(prog.decode(starts[0], starts[0] + n)) == tuple(self.burst(0))
        assert tuple(prog.decode(starts[2], starts[2] + n)) == tuple(self.burst(100))
        # The store's run index is interned once; the global map is
        # derived from it and the segment sequence on each call.
        assert prog.store_runs() is prog.store_runs()
        assert prog.vector_runs() == runs
        # extraction alone builds no lane table
        assert prog._lanes is None

    def test_runs_carry_no_position(self):
        prog, n = self.compiled()
        assert prog.vector_runs()[0] == (0, n)

    def test_bodies_alike_at_their_ends_and_middle_stay_apart(self):
        """Bodies with the same opcodes and the same first, middle and
        last op, differing elsewhere, are distinct runs; each repeat,
        from fresh op tuples too, finds its own."""
        from repro.runtime.program import compile_program

        a = self.burst(0, 9)
        b = [*a[:2], P.read(77), *a[3:]]
        c = [*a[:6], P.write(78), *a[7:]]
        spans = [a, b, c, [(*op,) for op in b], a]
        ops = []
        for k, body in enumerate(spans):
            ops += [*body, P.barrier(k)]
        prog = compile_program(ops)
        runs = prog.vector_runs()
        bodies = [tuple(prog.decode(pc, pc + runs[pc][1])) for pc in sorted(runs)]
        assert bodies == [tuple(body) for body in spans]
        assert [runs[pc][0] for pc in sorted(runs)] == [0, 1, 2, 1, 0]

    def test_programs_do_not_share_runs(self):
        """The intern table is per compiled program, not global: each
        numbers its own bodies from row 0."""
        from repro.runtime.program import compile_program

        one, n = self.compiled()
        two = compile_program([*self.burst(100), P.barrier(0), *self.burst(0), P.barrier(1)])
        assert one.vector_runs()[0] == two.vector_runs()[0] == (0, n)
        assert two.vector_runs()[n + 1] == (1, n)  # one's row 0 body
        assert one._lane_table() is not two._lane_table()
