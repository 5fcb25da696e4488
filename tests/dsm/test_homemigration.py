"""Tests for object home migration (the Section VI extension)."""

import pytest

from repro.dsm.homemigration import DominantWriterPolicy, HomeMigrationEngine
from repro.dsm.observer import ProtocolObserver
from repro.dsm.states import RealState
from repro.runtime import program as P
from repro.runtime.djvm import DJVM, run_fingerprint
from repro.sim.costs import CostModel
from repro.sim.network import MessageKind

from tests.conftest import simple_class, wrap_main


class NoticeRecorder(ProtocolObserver):
    """Records every ``(obj_id, version)`` notice observers are shown."""

    def __init__(self) -> None:
        self.notices: list[tuple[int, int]] = []

    def on_notice(self, thread, obj_id, version):
        self.notices.append((obj_id, version))


def setup(n_nodes=2):
    djvm = DJVM(n_nodes=n_nodes, costs=CostModel.fast_test())
    cls = simple_class(djvm, "Obj", 256)
    obj = djvm.allocate(cls, 0)
    for n in range(n_nodes):
        djvm.spawn_thread(n)
    engine = HomeMigrationEngine(djvm.hlrc)
    return djvm, obj, engine


class TestMechanism:
    def test_rehome_moves_authority(self):
        djvm, obj, engine = setup()
        engine.migrate_home(obj, 1)
        assert obj.home_node == 1
        new_copy = djvm.hlrc.copy(1, obj.obj_id)
        assert new_copy is not None and new_copy.is_home
        assert engine.stats.migrations == 1
        assert engine.stats.bytes_shipped == obj.size_bytes

    def test_old_home_becomes_valid_cache(self):
        djvm, obj, engine = setup()
        # Materialize the old home copy first.
        djvm.run(
            {
                0: wrap_main([P.read(obj.obj_id), P.barrier(0)]),
                1: wrap_main([P.barrier(0)]),
            }
        )
        assert djvm.hlrc.copy(0, obj.obj_id).is_home
        assert djvm.hlrc.copy(0, obj.obj_id).fetched_version == 0
        version = djvm.hlrc.home_version[obj.obj_id]
        engine.migrate_home(obj, 1)
        old_copy = djvm.hlrc.copy(0, obj.obj_id)
        assert old_copy is not None
        assert old_copy.real_state is RealState.VALID
        assert old_copy.fetched_version == version
        # The new home had no copy: one materializes there, fetched 0.
        assert djvm.hlrc.copy(1, obj.obj_id) == (RealState.HOME, 0, False, 0, None)

    def test_a_written_cache_copy_rehomed_to_its_node_drops_its_twin(self):
        """The new home's cache copy becomes the home copy: it keeps its
        fetched version and its twin state goes."""
        djvm, obj, engine = setup()
        writer = djvm.threads[1]
        djvm.hlrc.open_interval(writer)
        djvm.hlrc.access(writer, obj.obj_id, is_write=True)
        assert djvm.hlrc.copy(1, obj.obj_id).has_twin
        engine.migrate_home(obj, 1)
        assert djvm.hlrc.copy(1, obj.obj_id) == (RealState.HOME, 0, False, 0, None)

    def test_noop_when_already_home(self):
        djvm, obj, engine = setup()
        engine.migrate_home(obj, 0)
        assert engine.stats.migrations == 0

    def test_bad_target_rejected(self):
        djvm, obj, engine = setup()
        with pytest.raises(ValueError):
            engine.migrate_home(obj, 9)

    def test_rehome_publishes_no_notice(self):
        """The data does not move, so no version does: a re-homing shows
        observers no notice and leaves the notice log and the home
        version as they were."""
        djvm, obj, engine = setup()
        hlrc = djvm.hlrc
        log = djvm.attach(NoticeRecorder())
        before = (hlrc.n_notices, hlrc.notice_digest(), hlrc.home_version[obj.obj_id])
        engine.migrate_home(obj, 1)
        assert (hlrc.n_notices, hlrc.notice_digest(), hlrc.home_version[obj.obj_id]) == before
        assert log.notices == []

    def test_payload_and_directory_messages_sent(self):
        djvm, obj, engine = setup()
        engine.migrate_home(obj, 1)
        stats = djvm.cluster.network.stats
        assert stats.count_by_kind.get(MessageKind.OBJECT_FETCH_DATA, 0) == 1
        assert stats.count_by_kind.get(MessageKind.CONTROL, 0) == 1

    def test_writes_after_rehome_are_home_writes(self):
        """After re-homing to the writer's node, its writes stop
        producing diff messages."""
        djvm, obj, engine = setup()
        engine.migrate_home(obj, 1)
        result = djvm.run(
            {
                0: wrap_main([P.barrier(0)]),
                1: wrap_main([P.write(obj.obj_id), P.barrier(0)]),
            }
        )
        assert result.counters["diffs"] == 0
        assert djvm.hlrc.home_version[obj.obj_id] == 1  # the home write's notice alone


class TestDominantWriterPolicy:
    def run_policy(self, writer_rounds=6, threshold=0.6, cooldown=2, min_writes=3):
        djvm, obj, engine = setup()
        policy = DominantWriterPolicy(
            engine,
            threshold=threshold,
            min_writes=min_writes,
            cooldown_writes=cooldown,
        )
        djvm.add_hook(policy)
        ops1 = []
        ops0 = []
        for r in range(writer_rounds):
            ops1 += [P.write(obj.obj_id), P.barrier(r)]
            ops0 += [P.barrier(r)]
        djvm.run({0: wrap_main(ops0), 1: wrap_main(ops1)})
        return djvm, obj, engine, policy

    def test_rehomes_to_dominant_writer(self):
        djvm, obj, engine, policy = self.run_policy()
        assert obj.home_node == 1
        assert engine.stats.migrations >= 1

    def test_min_writes_gate(self):
        djvm, obj, engine, policy = self.run_policy(writer_rounds=2, min_writes=10)
        assert obj.home_node == 0
        assert engine.stats.migrations == 0

    def test_cooldown_prevents_thrashing(self):
        """Two alternating writers: hysteresis keeps re-homing bounded
        well below once-per-interval."""
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        cls = simple_class(djvm, "Obj", 256)
        obj = djvm.allocate(cls, 0)
        djvm.spawn_thread(0)
        djvm.spawn_thread(1)
        engine = HomeMigrationEngine(djvm.hlrc)
        policy = DominantWriterPolicy(
            engine, threshold=0.6, min_writes=2, cooldown_writes=6
        )
        djvm.add_hook(policy)
        rounds = 12
        ops0, ops1 = [], []
        for r in range(rounds):
            # Alternate which thread writes in each round.
            if r % 2 == 0:
                ops0.append(P.write(obj.obj_id))
            else:
                ops1.append(P.write(obj.obj_id))
            ops0.append(P.barrier(r))
            ops1.append(P.barrier(r))
        djvm.run({0: wrap_main(ops0), 1: wrap_main(ops1)})
        assert engine.stats.per_object.get(obj.obj_id, 0) <= rounds // 4

    def test_invalid_config_rejected(self):
        djvm, obj, engine = setup()
        with pytest.raises(ValueError):
            DominantWriterPolicy(engine, threshold=0.4)
        with pytest.raises(ValueError):
            DominantWriterPolicy(engine, min_writes=0)


def test_policy_rides_the_one_pass():
    """The policy reads only the written set at close, so it has a
    first-touch entry and the run keeps the vector engine: re-homings
    and all, the fingerprint is the scalar loop's."""
    outcomes = {}
    for replay in ("vector", "scalar"):
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test(), replay=replay)
        cls = simple_class(djvm, "Obj", 2048)
        objs = [djvm.allocate(cls, 0) for _ in range(8)]
        djvm.spawn_thread(0)
        djvm.spawn_thread(1)
        engine = HomeMigrationEngine(djvm.hlrc)
        djvm.add_hook(DominantWriterPolicy(engine, threshold=0.6, min_writes=2))
        ops0, ops1 = [], []
        for r in range(10):
            ops1 += [P.write(o.obj_id) for o in objs]
            ops1.append(P.barrier(r))
            ops0.append(P.barrier(r))
        res = djvm.run({0: wrap_main(ops0), 1: wrap_main(ops1)})
        outcomes[replay] = (run_fingerprint(djvm, res), engine.stats.migrations)
        if replay == "vector":
            assert djvm.hlrc.dispatch_plan == (("DominantWriterPolicy", "first_touch"),)
            routing = djvm.replay_routing
            assert routing["runs"] > 0
    assert outcomes["vector"] == outcomes["scalar"]
    assert outcomes["vector"][1] >= 1


class TestEndToEndBenefit:
    def test_rehoming_cuts_remote_traffic(self):
        """A producer writing a remote-homed object every interval: home
        migration eliminates the recurring diffs."""

        def run(with_policy: bool):
            djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
            cls = simple_class(djvm, "Obj", 2048)
            objs = [djvm.allocate(cls, 0) for _ in range(8)]
            djvm.spawn_thread(0)
            djvm.spawn_thread(1)
            if with_policy:
                engine = HomeMigrationEngine(djvm.hlrc)
                djvm.add_hook(
                    DominantWriterPolicy(engine, threshold=0.6, min_writes=2)
                )
            rounds = 10
            ops1, ops0 = [], []
            for r in range(rounds):
                ops1 += [P.write(o.obj_id) for o in objs]
                ops1.append(P.barrier(r))
                ops0.append(P.barrier(r))
            djvm.run({0: wrap_main(ops0), 1: wrap_main(ops1)})
            return djvm.cluster.network.stats.gos_bytes

        assert run(True) < 0.7 * run(False)
