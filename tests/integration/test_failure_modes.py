"""Failure-mode tests: the simulator must fail loudly and precisely, not
corrupt state or hang, when components misbehave."""

import json

import pytest

from repro.analysis.trace import ProfileTrace
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.runtime.migration import MigrationPlan
from repro.runtime.vector import WalkedRunMigrationError
from repro.sim.costs import CostModel

from tests.conftest import GC_STATES, caller_gc_state, gc_state, simple_class, wrap_main


def make(n_nodes=2, n_threads=2):
    djvm = DJVM(n_nodes=n_nodes, costs=CostModel.fast_test())
    cls = simple_class(djvm)
    obj = djvm.allocate(cls, 0)
    for i in range(n_threads):
        djvm.spawn_thread(i % n_nodes)
    return djvm, obj


class TestHookFailures:
    def test_hook_exception_propagates(self):
        """A crashing profiler hook fails the run immediately (fail-fast:
        silently swallowed profiling bugs would corrupt experiments)."""
        djvm, obj = make(n_threads=1)

        class Broken:
            def on_interval_open(self, thread):
                pass

            def on_access(self, thread, obj, **kw):
                raise RuntimeError("profiler bug")

            def on_interval_close(self, thread, interval, sync_dst):
                pass

        djvm.add_hook(Broken())
        with pytest.raises(RuntimeError, match="profiler bug"):
            djvm.run({0: wrap_main([P.read(obj.obj_id)])})

    def test_timer_exception_propagates(self):
        djvm, obj = make(n_threads=1)

        class BrokenTimer:
            def next_fire_ns(self, thread):
                return 0  # every op boundary

            def maybe_fire(self, thread):
                raise ValueError("timer bug")

        djvm.add_timer(BrokenTimer())
        with pytest.raises(ValueError, match="timer bug"):
            djvm.run({0: wrap_main([P.compute(1)])})


class TestProgramFailures:
    def test_access_to_unknown_object(self):
        djvm, obj = make(n_threads=1)
        with pytest.raises(IndexError):
            djvm.run({0: wrap_main([P.read(9999)])})

    def test_ret_on_empty_stack(self):
        # The static IR gate (IR003) now rejects this before the
        # interpreter's own IndexError would fire.
        from repro.checks.staticflow import IRVerificationError

        djvm, obj = make(n_threads=1)
        with pytest.raises((IndexError, IRVerificationError)):
            djvm.run({0: [P.ret()]})

    def test_generator_program_exception_surfaces(self):
        djvm, obj = make(n_threads=1)

        def program():
            yield P.call("main", 2)
            raise OSError("trace generation failed")

        with pytest.raises(OSError, match="trace generation"):
            djvm.run({0: program()})


class TestMigrationFailures:
    def test_plan_to_invalid_node_fails_at_fire_time(self):
        djvm, obj = make()
        djvm.migration.schedule(MigrationPlan(thread_id=0, target_node=99, at_pc=1))
        with pytest.raises(ValueError, match="out of range"):
            djvm.run(
                {
                    0: wrap_main([P.read(obj.obj_id), P.barrier(0)]),
                    1: wrap_main([P.barrier(0)]),
                }
            )

    def test_prefetch_provider_exception_surfaces(self):
        djvm, obj = make()

        def provider(thread):
            raise KeyError("resolution state missing")

        djvm.migration.schedule(
            MigrationPlan(thread_id=0, target_node=1, at_pc=1, prefetch_provider=provider)
        )
        with pytest.raises(KeyError):
            djvm.run(
                {
                    0: wrap_main([P.read(obj.obj_id), P.barrier(0)]),
                    1: wrap_main([P.barrier(0)]),
                }
            )


class MigratingTimer:
    """A timer with a positive deadline that, at its one fire, schedules
    a migration of the thread it fires on."""

    def __init__(self, djvm):
        self.djvm = djvm
        self.fired = False

    def next_fire_ns(self, thread):
        return 1 << 62 if self.fired else 5_000

    def maybe_fire(self, thread):
        if not self.fired and thread.clock.now_ns >= 5_000:
            self.fired = True
            self.djvm.migration.schedule(MigrationPlan(thread.thread_id, 1))


def run_migrating_timer(replay):
    djvm = DJVM(n_nodes=2, costs=CostModel.fast_test(), replay=replay)
    cls = simple_class(djvm)
    obj = djvm.allocate(cls, 0)
    djvm.spawn_thread(0)
    djvm.add_timer(MigratingTimer(djvm))
    # 2 us of compute per op at the fast_test scale: the deadline
    # passes in the middle of the one access run.
    body = [P.read(obj.obj_id), P.compute(200_000)] * 5
    djvm.run({0: wrap_main(body)})
    return djvm.threads[0]


class TestWalkedRunFailures:
    def test_timer_leaving_its_own_migration_pending_inside_a_walked_run(self):
        """The scalar loop migrates at the op after the fire, inside the
        access run; the vector engine's walk cannot split the run there,
        so it raises a named error rather than diverge."""
        assert run_migrating_timer("scalar").node_id == 1
        with pytest.raises(WalkedRunMigrationError, match="pending for its own thread"):
            run_migrating_timer("vector")

    @pytest.mark.parametrize("state", GC_STATES)
    def test_a_run_that_raises_restores_the_callers_gc_state(self, state):
        """``DJVM.run`` freezes the pre-run heap for the run; a run that
        raises still leaves the collector as the caller had it."""
        with caller_gc_state(state):
            before = gc_state()
            with pytest.raises(WalkedRunMigrationError):
                run_migrating_timer("vector")
            assert gc_state() == before


class TestRunReuse:
    def test_two_sequential_runs_on_one_djvm_rejected_or_clean(self):
        """Running a second program set on spent threads must not silently
        produce garbage: threads are DONE, so re-running raises."""
        djvm, obj = make(n_threads=1)
        djvm.run({0: wrap_main([P.read(obj.obj_id)])})
        with pytest.raises(Exception):
            djvm.run({0: wrap_main([P.read(obj.obj_id)])})


class TestTraceFailures:
    """A damaged profile trace is a named ``ValueError`` that names the
    file, never a bare decoder or lookup error."""

    @staticmethod
    def _trace() -> ProfileTrace:
        return ProfileTrace(n_threads=2, page_size=4096, classes={}, objects={}, batches=[])

    def test_truncated_gzip(self, tmp_path):
        path = tmp_path / "trace.json.gz"
        self._trace().save(path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match=r"trace .*trace\.json\.gz: unreadable"):
            ProfileTrace.load(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "trace.json"
        doc = self._trace().to_dict()
        del doc["batches"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"trace .*trace\.json: missing field 'batches'"):
            ProfileTrace.load(path)

    def test_garbled_json(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(self._trace().to_dict())[:-5] + "#")
        with pytest.raises(ValueError, match=r"trace .*trace\.json: not valid JSON"):
            ProfileTrace.load(path)


class TestSnapshotFailures:
    """``python -m repro.obs diff`` on a snapshot that parses but is no
    JSON object exits 2 with a message naming the file, as on an
    unreadable or invalid one."""

    @pytest.mark.parametrize("doc", [[1, 2], "text", 3, None])
    def test_diff_rejects_a_snapshot_that_is_not_an_object(self, tmp_path, capsys, doc):
        from repro.obs.__main__ import main

        path = tmp_path / "snap.json"
        path.write_text(json.dumps(doc))
        assert main(["diff", str(path), str(path)]) == 2
        err = capsys.readouterr().err
        assert "snap.json: expected a JSON object" in err and "Traceback" not in err
