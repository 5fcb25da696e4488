"""Protocol state is held in numpy-backed columns, but no numpy scalar
may leave them: every id and version the protocol logs, hands an
observer or a hook, or returns is a plain ``int`` (a numpy scalar would
change a digest's ``repr`` and cost a boxed op wherever it is read)."""

from __future__ import annotations

import pytest

from repro.dsm.hlrc import HomeBasedLRC
from repro.dsm.observer import ProtocolObserver
from repro.runtime.djvm import DJVM
from repro.workloads.barnes_hut import BarnesHutWorkload
from repro.workloads.sor import SORWorkload
from repro.workloads.water_spatial import WaterSpatialWorkload

N_NODES = 4

WORKLOADS = {
    "sor": lambda: SORWorkload(n=64, rounds=3, n_threads=N_NODES, seed=5),
    "barnes_hut": lambda: BarnesHutWorkload(n_bodies=64, rounds=2, n_threads=N_NODES, seed=5),
    "water_spatial": lambda: WaterSpatialWorkload(
        n_molecules=48, rounds=2, n_threads=N_NODES, seed=5
    ),
}


class Values(ProtocolObserver):
    """Keeps every notice id and version and every invalidated id it is
    shown, and counts the notices."""

    def __init__(self) -> None:
        self.values: list = []
        self.notices = 0

    def on_notice(self, thread, obj_id, version):
        self.values += [obj_id, version]
        self.notices += 1

    def on_invalidations(self, thread, obj_ids):
        self.values += obj_ids


class FaultedIds:
    """A first-touch hook that keeps the ids and faulted ids it is
    handed (planned, so the run keeps the one pass)."""

    def __init__(self) -> None:
        self.values: list = []

    def on_interval_open(self, thread):
        pass

    def on_access(self, thread, obj, **kwargs):
        pass

    def on_interval_close(self, thread, interval, sync_dst):
        pass

    def fast_on_access(self, thread, ids, faulted):
        self.values += ids
        self.values += [oid for oid in ids if oid in faulted]
        return None


def _non_ints(values) -> list:
    return [v for v in values if type(v) is not int]


@pytest.mark.parametrize("replay", ["vector", "scalar"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_protocol_values_are_plain_ints(name, replay, monkeypatch):
    prices: list = []
    charge = HomeBasedLRC.charge_faults

    def recording_charge(self, thread, faulted):
        got = charge(self, thread, faulted)
        prices.extend(got)
        prices.extend(faulted)
        return got

    monkeypatch.setattr(HomeBasedLRC, "charge_faults", recording_charge)
    djvm = DJVM(N_NODES, replay=replay)
    seen = djvm.attach(Values())
    hook = FaultedIds()
    djvm.add_hook(hook)
    workload = WORKLOADS[name]()
    workload.build(djvm)
    result = djvm.run(workload.programs())
    hlrc = djvm.hlrc
    assert result.counters["notices"] > 0 and result.counters["faults"] > 0
    # The engine keeps its notice log as a digest: every notice reaches
    # the observers, whose values are checked here.
    assert seen.notices == result.counters["notices"] == hlrc.n_notices
    assert seen.values and _non_ints(seen.values) == []
    assert hook.values and _non_ints(hook.values) == []
    if replay == "vector":
        assert djvm.replay_routing["faults_batched"] > 0
        assert prices and _non_ints(prices) == []
    copies = [
        field
        for node_id in sorted(hlrc.heaps)
        for obj_id in hlrc.copy_ids(node_id)
        for field in (obj_id, hlrc.copy(node_id, obj_id).fetched_version)
    ]
    assert copies and _non_ints(copies) == []
    assert _non_ints(hlrc.home_version[: len(djvm.gos)]) == []
