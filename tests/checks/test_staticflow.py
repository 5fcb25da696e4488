"""The whole-program static analysis: verifier, CFG, sharing lattice,
may-race soundness and report plumbing."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.checks import ProtocolSanitizer
from repro.checks.staticflow import (
    IRVerificationError,
    analyze,
    analyze_ir,
    build_cfg,
    fixed_point,
    gate_program,
    may_races,
    uncovered_dynamic,
    verify_ops,
    verify_structure,
    verify_workload,
)
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.runtime.ir import ObjectInfo, WorkloadIR
from repro.runtime.program import compile_program
from repro.workloads.synthetic import GroupSharingWorkload, RacyCounterWorkload

N_NODES = 4


def _ir(programs: dict[int, list], *, n_nodes: int = 2, objects=(), nodes=None):
    """Hand-build a WorkloadIR for verifier/CFG unit tests."""
    compiled = {tid: compile_program(ops) for tid, ops in programs.items()}
    objs = {
        obj_id: ObjectInfo(
            obj_id=obj_id,
            class_id=0,
            class_name="Obj",
            home_node=0,
            size_bytes=64,
            is_array=False,
            length=0,
            site="test.site",
        )
        for obj_id in objects
    }
    node_of = nodes or {tid: tid % n_nodes for tid in programs}
    return WorkloadIR(
        n_nodes=n_nodes, programs=compiled, node_of_thread=node_of, objects=objs
    )


# ---------------------------------------------------------------------------
# verifier: structural tier
# ---------------------------------------------------------------------------


#: every structural case in a few ops: frames, slots, two locks, and the
#: ops that pass through the structure checks untouched.
STRUCTURE_ALPHABET = [
    P.call("m", 2),
    P.ret(),
    P.setslot(0, 1),
    P.acquire(0),
    P.release(0),
    P.acquire(1),
    P.release(1),
    P.barrier(0),
    P.read(0),
]


def _earliest(finding):
    pc = finding[1]
    return (pc is None, pc or 0)


class TestVerifyStructure:
    def test_clean_program(self):
        prog = compile_program([P.call("m", 2), P.read(0), P.ret()])
        assert verify_structure(prog) == []

    def test_ret_with_empty_stack(self):
        prog = compile_program([P.ret()])
        assert [p.code for p in verify_structure(prog)] == ["IR003"]

    def test_unpopped_frames(self):
        prog = compile_program([P.call("m", 2), P.read(0)])
        probs = verify_structure(prog)
        assert [p.code for p in probs] == ["IR003"]
        assert "unpopped" in probs[0].message

    def test_setslot_outside_frame(self):
        prog = compile_program([P.setslot(0, 1)])
        assert [p.code for p in verify_structure(prog)] == ["IR004"]

    def test_setslot_inside_frame_ok(self):
        prog = compile_program([P.call("m", 2), P.setslot(0, 1), P.ret()])
        assert verify_structure(prog) == []

    def test_double_acquire(self):
        prog = compile_program(
            [P.acquire(1), P.acquire(1), P.release(1), P.release(1)]
        )
        probs = verify_structure(prog)
        assert any(p.code == "IR005" and "already held" in p.message for p in probs)

    def test_release_unheld(self):
        prog = compile_program([P.release(9)])
        assert any(p.code == "IR005" for p in verify_structure(prog))

    def test_ends_holding_lock(self):
        prog = compile_program([P.acquire(2)])
        probs = verify_structure(prog)
        assert any(p.code == "IR005" and "holding" in p.message for p in probs)

    def test_empty_program(self):
        assert verify_structure(compile_program([])) == []

    @given(st.lists(st.sampled_from(STRUCTURE_ALPHABET), max_size=8))
    def test_gate_tier_agrees_with_full_tier(self, ops):
        """On a well-typed stream the numpy gate and the full tier's
        structural findings (IR003/IR004/IR005) agree on validity and
        name the same earliest ``(code, pc)`` (an end-of-program finding,
        pc None, sorts last)."""
        gate = [(p.code, p.pc) for p in verify_structure(compile_program(ops), 0)]
        full = [
            (p.code, p.pc)
            for p in verify_ops(ops, 0)
            if p.code in ("IR003", "IR004", "IR005")
        ]
        assert bool(gate) == bool(full)
        if gate:
            assert min(gate, key=_earliest) == min(full, key=_earliest)


class TestGateProgram:
    def test_gate_caches_clean_result(self):
        prog = compile_program([P.call("m", 2), P.ret()])
        assert not prog._verified
        gate_program(prog)
        assert prog._verified
        gate_program(prog)  # second call is a no-op

    def test_gate_raises_with_problems_attached(self):
        prog = compile_program([P.call("m", 2)])
        with pytest.raises(IRVerificationError) as exc:
            gate_program(prog)
        assert [p.code for p in exc.value.problems] == ["IR003"]
        assert not prog._verified

    def test_vector_run_gates_malformed_program(self):
        """The interpreter's vector path must refuse a CALL-without-RET
        program instead of replaying it."""
        djvm = DJVM(2, replay="vector")
        cls = djvm.define_class("Obj", 64)
        oid = djvm.allocate(cls, 0).obj_id
        djvm.spawn_thread(0)
        bad = [P.call("m", 2)] + [P.read(oid) for _ in range(16)]
        with pytest.raises(IRVerificationError):
            djvm.run({0: bad})

    @pytest.mark.parametrize("route", ["scalar", "sanitized"])
    def test_every_route_gates_malformed_program(self, route):
        """The scalar oracle, and a vector run with an observer attached,
        refuse the same CALL-without-RET program the bare vector path
        refuses."""
        djvm = DJVM(2, replay="scalar" if route == "scalar" else "vector")
        if route == "sanitized":
            djvm.attach(ProtocolSanitizer())
        cls = djvm.define_class("Obj", 64)
        oid = djvm.allocate(cls, 0).obj_id
        djvm.spawn_thread(0)
        bad = [P.call("m", 2)] + [P.read(oid) for _ in range(16)]
        with pytest.raises(IRVerificationError):
            djvm.run({0: bad})

    def test_scalar_run_accepts_clean_program(self):
        djvm = DJVM(2, replay="scalar")
        cls = djvm.define_class("Obj", 64)
        oid = djvm.allocate(cls, 0).obj_id
        djvm.spawn_thread(0)
        ok = [P.call("m", 2)] + [P.read(oid) for _ in range(16)] + [P.ret()]
        djvm.run({0: ok})

    def test_scalar_run_caches_verification(self, monkeypatch):
        """A program verified on the scalar route is not verified again
        when a vector run reuses it."""
        from repro.checks.staticflow import verifier

        ok = compile_program([P.call("m", 2), P.read(0), P.ret()])
        for replay in ("scalar", "vector"):
            djvm = DJVM(2, replay=replay)
            djvm.allocate(djvm.define_class("Obj", 64), 0)
            djvm.spawn_thread(0)
            djvm.run({0: ok})
            assert ok._verified
            monkeypatch.setattr(verifier, "verify_structure", None)

    def test_vector_run_accepts_clean_program(self):
        djvm = DJVM(2, replay="vector")
        cls = djvm.define_class("Obj", 64)
        oid = djvm.allocate(cls, 0).obj_id
        djvm.spawn_thread(0)
        ok = [P.call("m", 2)] + [P.read(oid) for _ in range(16)] + [P.ret()]
        djvm.run({0: ok})


# ---------------------------------------------------------------------------
# verifier: full tier
# ---------------------------------------------------------------------------


class TestVerifyOps:
    def test_unknown_opcode(self):
        assert [p.code for p in verify_ops([(42, 0)])] == ["IR001"]

    def test_wrong_arity(self):
        probs = verify_ops([(P.OP_READ, 1)])
        assert [p.code for p in probs] == ["IR002"]

    def test_bad_field_domain(self):
        probs = verify_ops([(P.OP_READ, -1, 1, 1, 0)])
        assert any(p.code == "IR002" for p in probs)

    def test_non_tuple_op(self):
        assert [p.code for p in verify_ops(["nope"])] == ["IR002"]

    def test_barrier_while_holding_lock(self):
        ops = [P.acquire(0), P.barrier(0), P.release(0)]
        probs = verify_ops(ops)
        assert any(p.code == "IR006" for p in probs)

    def test_ir006_not_in_gate_tier(self):
        """Lock-across-barrier is full-tier only — legal for the
        engines, merely suspicious."""
        prog = compile_program([P.acquire(0), P.barrier(0), P.release(0)])
        assert verify_structure(prog) == []


class TestVerifyWorkload:
    def test_clean_two_thread_workload(self):
        ops = [P.call("m", 2), P.read(0), P.barrier(0), P.ret()]
        ir = _ir({0: list(ops), 1: list(ops)}, objects=[0])
        assert verify_workload(ir) == []

    def test_unallocated_object(self):
        ir = _ir({0: [P.read(7)]}, objects=[])
        probs = verify_workload(ir)
        assert [p.code for p in probs] == ["IR007"]

    def test_unallocated_call_ref(self):
        ir = _ir({0: [P.call("m", 2, refs=[(0, 9)]), P.ret()]}, objects=[])
        assert any(p.code == "IR007" for p in verify_workload(ir))

    def test_barrier_sequence_divergence(self):
        ir = _ir(
            {0: [P.barrier(0), P.barrier(1)], 1: [P.barrier(0), P.barrier(2)]},
            objects=[],
        )
        probs = verify_workload(ir)
        assert any(p.code == "IR008" and p.thread_id == 1 for p in probs)

    def test_barrier_count_divergence(self):
        ir = _ir({0: [P.barrier(0)], 1: []}, objects=[])
        assert any(p.code == "IR008" for p in verify_workload(ir))

    def test_thread_off_cluster(self):
        ir = _ir({0: [P.read(0)]}, objects=[0], nodes={0: 5})
        assert any(p.code == "IR009" for p in verify_workload(ir))

    def test_built_workloads_verify_clean(self):
        wl = RacyCounterWorkload(n_threads=4, locked=True, seed=11)
        djvm = DJVM(n_nodes=N_NODES)
        wl.build(djvm, placement="round_robin")
        ir = djvm.export_ir(wl.programs())
        assert verify_workload(ir) == []


# ---------------------------------------------------------------------------
# CFG + dataflow
# ---------------------------------------------------------------------------


class TestCFG:
    def test_segmentation_and_phases(self):
        ops = [
            P.call("m", 2),
            P.read(0),
            P.barrier(0),
            P.acquire(0),
            P.write(0),
            P.release(0),
            P.barrier(1),
            P.ret(),
        ]
        ir = _ir({0: ops}, objects=[0])
        cfg = build_cfg(ir)
        segs = ir and cfg.threads[0].segments
        assert [s.phase for s in segs] == [0, 1, 1, 1, 2]
        assert cfg.n_phases == 3
        assert cfg.threads[0].barrier_ids == (0, 1)

    def test_locksets(self):
        ops = [
            P.read(0),
            P.acquire(7),
            P.write(0),
            P.release(7),
            P.read(0),
        ]
        ir = _ir({0: ops}, objects=[0])
        cfg = build_cfg(ir)
        segs = cfg.threads[0].segments
        # Three segments: before ACQUIRE, the locked body, after RELEASE.
        assert [set(s.locks) for s in segs] == [set(), {7}, set()]

    def test_access_summaries_weight_repeats(self):
        ops = [P.read(0, repeat=3), P.write(0, repeat=2), P.read(1)]
        ir = _ir({0: ops}, objects=[0, 1])
        cfg = build_cfg(ir)
        seg = cfg.threads[0].segments[0]
        assert seg.reads == {0: 3, 1: 1}
        assert seg.writes == {0: 2}

    def test_back_to_back_barriers_make_empty_segments(self):
        ir = _ir({0: [P.barrier(0), P.barrier(1)]}, objects=[])
        cfg = build_cfg(ir)
        segs = cfg.threads[0].segments
        assert [s.n_ops for s in segs] == [0, 0, 0]
        assert [s.phase for s in segs] == [0, 1, 2]

    def test_empty_program_single_segment(self):
        ir = _ir({0: []}, objects=[])
        cfg = build_cfg(ir)
        assert len(cfg.threads[0].segments) == 1
        assert cfg.n_phases == 1

    def test_fixed_point_generic_chain(self):
        """The solver on a 3-node chain with meet=min."""
        nodes = [0, 1, 2]
        edges = [(0, 1), (1, 2)]
        facts = fixed_point(
            nodes,
            edges,
            init=lambda n: 10 if n == 0 else None,
            transfer=lambda n, f: f - 1,
            meet=min,
        )
        assert facts == {0: 10, 1: 9, 2: 8}


# ---------------------------------------------------------------------------
# sharing lattice
# ---------------------------------------------------------------------------


class TestSharing:
    def _report(self, workload, placement="round_robin"):
        return analyze(workload, n_nodes=N_NODES, placement=placement)

    def test_racy_counter_classifications(self):
        wl = RacyCounterWorkload(n_threads=4, locked=False, seed=11)
        report = self._report(wl)
        assert report.verified
        sharing = report.sharing
        assert sharing.objects[wl.counter_id].classification == "ping-pong"
        assert sharing.objects[wl.config_id].classification == "read-mostly-shared"
        # Scratch objects are written only by their own thread, homed
        # with it under round_robin: node-private.
        for t, oid in enumerate(wl.scratch_ids):
            assert sharing.objects[oid].classification == "node-private", t

    def test_site_summaries_take_worst(self):
        wl = RacyCounterWorkload(n_threads=4, locked=False, seed=11)
        report = self._report(wl)
        assert report.sharing.sites["racy.counter"].classification == "ping-pong"
        assert report.sharing.sites["racy.scratch"].classification == "node-private"

    def test_predicted_tcm_matches_ground_truth_structure(self):
        """GroupSharing knows its exact TCM; the static prediction must
        have the same nonzero support (scale differs by design)."""
        import numpy as np

        wl = GroupSharingWorkload(
            n_threads=8, group_size=2, objects_per_group=8, private_per_thread=4
        )
        report = self._report(wl, placement="round_robin")
        predicted = report.sharing.predicted_tcm()
        truth = wl.true_tcm()
        assert predicted.shape == truth.shape
        assert np.array_equal(predicted > 0, truth > 0)

    def test_single_writer_rows(self):
        from repro.workloads.sor import SORWorkload

        report = self._report(SORWorkload(n=64, rounds=2, n_threads=4, seed=11))
        counts = report.sharing.sites["sor.rows"].counts
        assert counts.get("single-writer", 0) > 0
        assert "ping-pong" not in counts


# ---------------------------------------------------------------------------
# may-race soundness (the issue's acceptance oracle)
# ---------------------------------------------------------------------------


class TestMayRaceSoundness:
    def test_racy_counter_races_found(self):
        wl = RacyCounterWorkload(n_threads=4, locked=False, seed=11)
        report = analyze(wl, n_nodes=N_NODES, placement="round_robin")
        kinds = {r.kind for r in report.races}
        assert kinds == {"write-write", "read-write"}
        assert all(r.obj_id == wl.counter_id for r in report.races)

    def test_locked_counter_is_silent(self):
        wl = RacyCounterWorkload(n_threads=4, locked=True, seed=11)
        report = analyze(wl, n_nodes=N_NODES, placement="round_robin")
        assert report.races == []

    def test_cross_phase_accesses_do_not_race(self):
        """Writes separated by a barrier are excluded (barrier HB)."""
        ops_a = [P.write(0), P.barrier(0)]
        ops_b = [P.barrier(0), P.write(0)]
        ir = _ir({0: ops_a, 1: ops_b}, objects=[0])
        assert may_races(ir, build_cfg(ir)) == []

    def test_common_lock_excludes_pair(self):
        locked = [P.acquire(0), P.write(5), P.release(0)]
        ir = _ir({0: list(locked), 1: list(locked)}, objects=[5])
        assert may_races(ir, build_cfg(ir)) == []

    def test_disjoint_locks_still_race(self):
        a = [P.acquire(0), P.write(5), P.release(0)]
        b = [P.acquire(1), P.write(5), P.release(1)]
        ir = _ir({0: a, 1: b}, objects=[5])
        races = may_races(ir, build_cfg(ir))
        # a write is a touch too: the pair conflicts both ways
        assert [r.kind for r in races] == ["read-write", "write-write"]

    def test_static_superset_of_dynamic_on_all_bundled_workloads(self):
        """The soundness cross-check: every dynamic race report on the
        race-gate matrix is in the static may-race set."""
        from repro.checks.runner import race_workloads, run_race_all

        static = {
            name: analyze(wl, n_nodes=N_NODES, placement="round_robin", name=name)
            for name, wl, _expected in race_workloads()
        }
        for name, report in static.items():
            assert report.verified, name
        dynamic = run_race_all(verbose=False)
        any_dynamic = False
        for name, _intervals, reports, _expected, _routing in dynamic:
            missing = uncovered_dynamic(static[name].races, reports)
            assert missing == [], f"{name}: static set misses dynamic races"
            any_dynamic = any_dynamic or bool(reports)
        assert any_dynamic, "oracle vacuous: no dynamic race reported at all"


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


class TestReport:
    def test_render_and_json(self):
        wl = RacyCounterWorkload(n_threads=4, locked=False, seed=11)
        report = analyze(wl, n_nodes=N_NODES, name="racy")
        text = report.render()
        assert "racy.counter" in text and "may-race set" in text
        doc = report.to_json()
        assert doc["name"] == "racy"
        assert doc["sharing"]["sites"]["racy.counter"]["classification"] == "ping-pong"
        assert doc["may_races"]

    def test_failed_verification_short_circuits(self):
        ir = _ir({0: [P.read(7)]}, objects=[])
        report = analyze_ir(ir)
        assert not report.verified
        assert report.cfg is None and report.sharing is None
        assert "VERIFIER" in report.render()
        assert "sharing" not in report.to_json()


# ---------------------------------------------------------------------------
# IR export
# ---------------------------------------------------------------------------


class TestExportIR:
    def test_export_snapshots_objects_and_placement(self):
        wl = RacyCounterWorkload(n_threads=4, locked=False, seed=11)
        djvm = DJVM(n_nodes=N_NODES)
        wl.build(djvm, placement="round_robin")
        ir = djvm.export_ir(wl.programs())
        assert ir.n_nodes == N_NODES
        assert ir.thread_ids() == [0, 1, 2, 3]
        assert ir.node_of_thread == {0: 0, 1: 1, 2: 2, 3: 3}
        assert ir.objects[wl.counter_id].site == "racy.counter"
        assert ir.class_names() == ["Counter"]

    def test_unlabeled_allocation_falls_back_to_class_name(self):
        djvm = DJVM(2)
        cls = djvm.define_class("Plain", 32)
        obj = djvm.allocate(cls, 0)
        ir = djvm.export_ir({})
        assert ir.objects[obj.obj_id].site == "Plain"
