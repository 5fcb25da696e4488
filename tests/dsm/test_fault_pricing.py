"""Batched fault pricing against one fault at a time.

The vector engine's one pass charges a run's remote faults in one
:meth:`HomeBasedLRC.charge_faults`, pricing each by its object's price
class (its (home, class, length) key, set at its first fault) from a
per-node table filled the first time the node faults the class.  The
scalar loop charges each fault with :meth:`HomeBasedLRC._fault_remote`:
a trap and two ``Network.send`` calls.  For any sequence of batches —
several homes, classes of equal size, arrays of different lengths,
refaults of invalidated copies and new copies, keys seen before and
keys new to the table — both must leave the same clock, CPU buckets,
traffic by kind and ``hlrc_faults_total``, and each batch must return
the charge each of its faults made on the scalar path.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.homemigration import HomeMigrationEngine
from repro.dsm.states import ABSENT, INVALID
from repro.runtime.djvm import DJVM
from repro.sim.network import Network, RackTopology

N_NODES = 4

NETWORKS = {
    "flat": Network,
    "rack": lambda: Network(topology=RackTopology(2, intra_ns=30_000, cross_ns=150_000)),
    "odd_bandwidth_rack": lambda: Network(
        bandwidth_bytes_per_s=11.7e6, topology=RackTopology(2, intra_ns=30_000, cross_ns=150_000)
    ),
}

#: (class, array length) of each object kind: two scalar classes of one
#: size, a third of another size, and arrays of three lengths.
KINDS = [("A", 0), ("B", 0), ("C", 0), ("Arr", 4), ("Arr", 16), ("Arr", 17)]


def build(network: str, homes: list[int], kinds: list[int]):
    """A DJVM holding one object per (home, kind) pair, and a thread on
    node 0."""
    djvm = DJVM(N_NODES, network=NETWORKS[network]())
    classes = {
        "A": djvm.define_class("A", 64),
        "B": djvm.define_class("B", 64),
        "C": djvm.define_class("C", 40),
        "Arr": djvm.define_class("Arr", is_array=True, element_size=8),
    }
    objs = []
    for home, kind in zip(homes, kinds):
        name, length = KINDS[kind]
        objs.append(djvm.allocate(classes[name], home, length=length))
    thread = djvm.spawn_thread(0)
    return djvm, objs, thread


def left_behind(djvm, thread) -> tuple:
    stats = djvm.hlrc.network.stats
    return (
        thread.clock.now_ns,
        thread.cpu.protocol_ns,
        thread.cpu.network_wait_ns,
        stats.messages,
        sorted((kind.value, tuple(rec)) for kind, rec in stats._by_kind.items()),
        djvm.hlrc.metrics.value("hlrc_faults_total"),
    )


@st.composite
def fault_batches(draw):
    """Objects homed off node 0, and batches of distinct objects among
    them, each fault a refault (an invalidated copy) or a new copy."""
    n = draw(st.integers(1, 24))
    homes = draw(st.lists(st.integers(1, N_NODES - 1), min_size=n, max_size=n))
    kinds = draw(st.lists(st.integers(0, len(KINDS) - 1), min_size=n, max_size=n))
    batches = draw(
        st.lists(
            st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), min_size=1, max_size=12)
            .map(lambda faults: list(dict(faults).items())),
            min_size=1,
            max_size=4,
        )
    )
    return homes, kinds, batches


def stage(djvm, obj, refault: bool) -> bool:
    """Leave ``obj``'s copy on node 0 invalidated (a refault) or absent
    (a new copy), through its state byte; returns ``refault``."""
    djvm.hlrc.heaps[0].state[obj.obj_id] = INVALID if refault else ABSENT
    return refault


@settings(max_examples=150, deadline=None)
@given(batch=fault_batches(), network=st.sampled_from(sorted(NETWORKS)))
def test_a_batch_charges_what_one_fault_at_a_time_does(batch, network):
    homes, kinds, batches = batch
    scalar, scalar_objs, scalar_thread = build(network, homes, kinds)
    batched, batched_objs, batched_thread = build(network, homes, kinds)
    for faults in batches:
        one_by_one = []
        for k, refault in faults:
            stage(scalar, scalar_objs[k], refault)
            before = scalar_thread.clock.now_ns
            scalar.hlrc._fault_remote(scalar_thread, scalar_objs[k], refault)
            one_by_one.append(scalar_thread.clock.now_ns - before)
        for k, refault in faults:
            stage(batched, batched_objs[k], refault)
        ids = [batched_objs[k].obj_id for k, _ in faults]
        prices = batched.hlrc.charge_faults(batched_thread, ids)
        assert prices == one_by_one
        assert left_behind(batched, batched_thread) == left_behind(scalar, scalar_thread)
    assert left_behind(batched, batched_thread)[-1] == sum(map(len, batches))


def test_classes_of_one_size_fault_at_one_price():
    """Two scalar classes of one size, homed alike, cost the same fault;
    arrays of different lengths do not."""
    djvm, objs, thread = build("rack", [1, 1, 1, 1, 3], [0, 1, 3, 4, 0])
    prices = djvm.hlrc.charge_faults(thread, [obj.obj_id for obj in objs])
    assert prices[0] == prices[1] and prices[2] < prices[3]
    assert prices[4] > prices[0]  # node 3 is in the other rack


def test_a_rehomed_object_faults_at_its_new_homes_price():
    """A re-homing clears the object's price class: its next fault is
    priced from its new home, as the scalar loop's sends are."""
    djvm, objs, thread = build("rack", [1, 3], [0, 0])
    near, far = objs
    before = djvm.hlrc.charge_faults(thread, [near.obj_id])
    HomeMigrationEngine(djvm.hlrc).migrate_home(near, 3)
    after = djvm.hlrc.charge_faults(thread, [near.obj_id])
    assert after == djvm.hlrc.charge_faults(thread, [far.obj_id]) and after != before
