"""Micro-benchmarks of the reproduction's hot kernels.

Unlike the table/figure benches (one-shot experiments), these measure
steady-state throughput of the code paths that dominate real runs, so
regressions in the simulator itself are visible: TCM construction,
sampling decisions, the stack sampler, and the HLRC access fast path.
"""

import numpy as np

from repro.core.sampling import SamplingPolicy
from repro.core.stack_sampler import StackSampler
from repro.core.tcm import build_tcm
from repro.heap.heap import GlobalObjectSpace
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.runtime.stack import Frame
from repro.runtime.thread import SimThread
from repro.sim.costs import CostModel
from repro.sim.network import Network, RackTopology


def test_kernel_tcm_build(benchmark):
    """Vectorized TCM construction over 50k OAL entries."""
    rng = np.random.default_rng(0)
    entries = [
        (int(t), int(o), 64.0)
        for t, o in zip(rng.integers(0, 16, 50_000), rng.integers(0, 4_000, 50_000))
    ]
    tcm = benchmark(build_tcm, entries, 16)
    assert tcm.shape == (16, 16)
    assert tcm.sum() > 0


def test_kernel_sampling_decision(benchmark):
    """Per-object sampling decisions (the profiler's per-trap check)."""
    gos = GlobalObjectSpace()
    cls = gos.registry.define("Obj", 96)
    arr_cls = gos.registry.define("Arr", is_array=True, element_size=8)
    objs = [gos.allocate(cls, 0) for _ in range(2_000)]
    objs += [gos.allocate(arr_cls, 0, length=100) for _ in range(500)]
    policy = SamplingPolicy()
    policy.set_rate(cls, 4)
    policy.set_rate(arr_cls, 4)

    def run():
        return sum(1 for o in objs if policy.is_sampled(o))

    count = benchmark(run)
    assert 0 < count < len(objs)


def test_kernel_stack_sample(benchmark):
    """One SAMPLE-STACK pass over a 12-frame stack with churn."""
    thread = SimThread(0, 0)
    for depth in range(12):
        thread.stack.push(Frame(f"m{depth}", 8, refs={0: depth}))
    sampler = StackSampler(CostModel.gideon300())
    sampler.sample_stack(thread)  # prime: everything raw+visited

    def run():
        # Replace the top frame each round (temporary-frame churn).
        thread.stack.pop()
        thread.stack.push(Frame("temp", 8, refs={0: 99}))
        sampler.sample_stack(thread)

    benchmark(run)
    assert sampler.samples_taken > 0


def test_kernel_hlrc_access_fast_path(benchmark):
    """The simulator's hottest loop: local reads through the protocol."""
    djvm = DJVM(n_nodes=1, costs=CostModel.fast_test())
    cls = djvm.define_class("Obj", 64)
    obj = djvm.allocate(cls, 0)
    thread = djvm.spawn_thread(0)
    djvm.hlrc.open_interval(thread)

    def run():
        djvm.hlrc.access(thread, obj.obj_id, is_write=False, n_elems=1, repeat=1)

    benchmark(run)


def test_kernel_network_construction(benchmark):
    """Fabric construction + latency probes at high fan-out.

    Per-pair latency is an O(1) formula (never an O(n²) table), so
    building a 256-node rack fabric and probing 16 x 255 pairs must stay
    microsecond-cheap regardless of cluster size."""
    def run():
        net = Network(topology=RackTopology(rack_size=8))
        total = 0
        for src in range(0, 256, 17):
            for dst in range(256):
                if dst != src:
                    total += net.latency_between_ns(src, dst)
        return total

    total = benchmark(run)
    assert total > 0


def test_kernel_interpreter_throughput(benchmark):
    """End-to-end op throughput of the interpreter on a read-heavy loop."""
    def run():
        djvm = DJVM(n_nodes=1, costs=CostModel.fast_test())
        cls = djvm.define_class("Obj", 64)
        objs = [djvm.allocate(cls, 0) for _ in range(64)]
        djvm.spawn_thread(0)
        ops = [P.call("main", 2)]
        for _ in range(50):
            ops.extend(P.read(o.obj_id) for o in objs)
        ops.append(P.ret())
        return djvm.run({0: ops}).ops_executed

    ops = benchmark.pedantic(run, rounds=3, iterations=1)
    assert ops == 50 * 64 + 2
