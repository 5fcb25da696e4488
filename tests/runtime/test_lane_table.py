"""The lane table against a plain-Python reference, row by row.

A program's lane table (``CompiledProgram._lane_table``) computes every
segment body's lane in one numpy pass: its access ids, its frame ops,
its write lanes (each written object once, in first-write order, with
its summed written elements and its write ops), its totals, the cost of
its leading frame and compute ops and its walk columns.
The reference below reads the same things off one occurrence's decoded
ops in a loop, the write lanes with the merge loop the engine once ran
at every execution.  Every occurrence of every row must match: on the
end-to-end benchmark's workloads at their smoke sizes, and on generated
programs that write one object repeatedly, mix arrays and scalars, and
are priced under the default and ``CostModel.fast_test()`` compute
scales.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.workloads
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel

from tests.runtime.test_vector_replay import build_djvm, random_programs, repeating_programs

CATALOG = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "catalog.py"

COSTS = {"default": CostModel(), "fast_test": CostModel.fast_test()}


def load_catalog():
    spec = importlib.util.spec_from_file_location("e2e_catalog", CATALOG)
    catalog = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = catalog
    spec.loader.exec_module(catalog)
    return catalog


catalog = load_catalog()


def reference_lane(ops: list, costs) -> dict:
    """One body's lane from its op tuples, op by op."""
    busy = costs.state_check_ns + costs.access_ns
    unity = costs.compute_scale == 1.0
    frame_ns = {P.OP_CALL: costs.frame_push_ns, P.OP_RET: costs.frame_pop_ns, P.OP_SETSLOT: P.SETSLOT_NS}
    ids, acc_ops, steps, frames = [], [], [], []
    first_op: dict[int, int] = {}
    w_oids: list[int] = []
    w_welems: list[int] = []
    w_wops: list[int] = []
    first_write: dict[int, int] = {}
    index: dict[int, int] = {}
    for rel, op in enumerate(ops):
        if op[0] == P.OP_COMPUTE:
            ns = op[1]
            steps.append(ns if unity and ns >= 0 else costs.scaled_compute(ns))
            continue
        if op[0] in frame_ns:
            steps.append(frame_ns[op[0]])
            frames.append(rel)
            continue
        oid, n_elems, repeat = op[1], op[2], op[3]
        ids.append(oid)
        acc_ops.append(rel)
        steps.append(repeat * busy)
        first_op.setdefault(oid, rel)
        if op[0] != P.OP_WRITE:
            continue
        k = index.get(oid)
        if k is None:
            index[oid] = len(w_oids)
            w_oids.append(oid)
            w_welems.append(n_elems)
            w_wops.append(1)
            first_write[oid] = rel
        else:
            w_welems[k] += n_elems
            w_wops[k] += 1
    compute = sum(s for s, op in zip(steps, ops) if op[0] == P.OP_COMPUTE)
    return {
        "totals": (sum(steps) - compute, compute),
        "ids": ids,
        "frames": frames,
        "writes": (w_oids, w_welems, w_wops, w_oids),
        "walk": (steps, acc_ops, first_write, first_op),
    }


def table_lane(table, program, k: int, costs) -> dict:
    """Row ``k``'s lane as the engine slices it from ``table``."""
    ids = table.ids(k)
    a, b = table.w_bounds[k], table.w_bounds[k + 1]
    return {
        "totals": table.totals(program, k, costs),
        "ids": ids,
        "frames": table.f_rel[table.f_bounds[k] : table.f_bounds[k + 1]].tolist(),
        "writes": (
            table.w_ids[a:b],
            table.w_elems[a:b].tolist(),
            table.w_ops[a:b].tolist(),
            table.w_idx[a:b].tolist(),
        ),
        "walk": table.walk(program, k, costs, ids),
    }


def check_program(program: P.CompiledProgram, costs, ints=None) -> int:
    """Compare every occurrence of every row; returns the rows seen."""
    table = program._lane_table(ints)
    runs = program.vector_runs()
    for pc, (k, n_ops) in runs.items():
        got = table_lane(table, program, k, costs)
        ops = list(program.decode(pc, pc + n_ops))
        want = reference_lane(ops, costs)
        assert got == want, (pc, k)
        # The ops before the first access, as the scalar loop charges them.
        lead = next((rel for rel, op in enumerate(ops) if op[0] <= P.OP_WRITE), n_ops)
        compute = sum(s for s, op in zip(want["walk"][0][:lead], ops) if op[0] == P.OP_COMPUTE)
        assert table.head(program, k, lead, costs) == (sum(want["walk"][0][:lead]) - compute, compute)
        assert table.acc_idx[table.bounds[k] : table.bounds[k + 1]].tolist() == got["ids"]
        if ints is not None:
            # The ids handed out are the heap's own int objects.
            assert all(ints[oid] is oid for oid in got["ids"] + got["writes"][0])
    return len({k for k, _ in runs.values()})


def smoke_programs(spec) -> tuple[dict, np.ndarray]:
    workload = getattr(repro.workloads, spec.program)(
        n_threads=catalog.N_THREADS, seed=0, **spec.smoke_sizes
    )
    djvm = DJVM(catalog.N_NODES)
    workload.build(djvm, placement="block")
    ints = np.arange(len(djvm.gos)).astype(object)
    return {tid: P.compile_program(ops) for tid, ops in workload.programs().items()}, ints


@pytest.mark.parametrize("spec", catalog.WORKLOADS, ids=lambda spec: spec.name)
def test_workload_lanes_match_the_reference(spec):
    programs, ints = smoke_programs(spec)
    rows = [check_program(program, CostModel(), ints) for program in programs.values()]
    assert sum(rows) > 0


@pytest.mark.parametrize("costs", sorted(COSTS))
@pytest.mark.parametrize("make_programs", [random_programs, repeating_programs])
@pytest.mark.parametrize("seed", range(6))
def test_generated_lanes_match_the_reference(seed, make_programs, costs):
    """Bursts over working sets of 2-4 objects, scalars and arrays: most
    runs write one object more than once."""
    _, obj_ids = build_djvm()
    merged = 0
    for ops in make_programs(seed, obj_ids).values():
        program = P.compile_program(ops)
        assert check_program(program, COSTS[costs]) > 0
        table = program._lane_table()
        merged += sum(n > 1 for n in table.w_ops)
    assert merged > 0


def test_a_run_that_writes_nothing_has_empty_write_lanes():
    program = P.compile_program([P.read(3), P.compute(10), P.read(4, 2, 3), P.read(3), P.read(5), P.read(6)])
    assert check_program(program, CostModel()) == 1
    table = program._lane_table()
    assert table.w_bounds == [0, 0] and table.w_idx.dtype == np.intp
