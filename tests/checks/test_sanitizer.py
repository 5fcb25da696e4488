"""Protocol sanitizer tests: every invariant gets a deliberately
corrupted protocol state asserting its violation code fires, plus
clean-run and byte-identity guarantees."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.checks.sanitizer import INVARIANTS, ProtocolSanitizer, SanitizerViolation
from repro.core.profiler import ProfilerSuite
from repro.dsm.intervals import IntervalRecord
from repro.dsm.states import HOME, INVALID, VALID
from repro.runtime.djvm import DJVM, run_fingerprint
from repro.runtime.migration import MigrationResult
from repro.runtime.thread import SimThread
from repro.workloads.sor import SORWorkload


def make_thread(thread_id: int = 0, interval_id: int = 1, now_ns: int = 0) -> SimThread:
    thread = SimThread(thread_id=thread_id, node_id=0)
    thread.current_interval = IntervalRecord(thread_id, interval_id)
    thread.clock.advance_to(now_ns)
    return thread


def sanitized_djvm(n_nodes: int = 2) -> tuple[DJVM, ProtocolSanitizer]:
    djvm = DJVM(n_nodes=n_nodes)
    return djvm, djvm.attach(ProtocolSanitizer())


def expect(code: str):
    return pytest.raises(SanitizerViolation, match=code)


# ---------------------------------------------------------------------------
# SAN001: interval discipline
# ---------------------------------------------------------------------------


def test_san001_nested_open_via_engine():
    djvm, _ = sanitized_djvm()
    thread = djvm.spawn_thread(0)
    djvm.hlrc.open_interval(thread)
    with expect("SAN001"):
        djvm.hlrc.open_interval(thread)


def test_san001_close_without_open():
    san = ProtocolSanitizer()
    thread = make_thread()
    with expect("SAN001"):
        san.on_interval_close(thread, thread.current_interval)


def test_san001_nonincreasing_interval_id():
    san = ProtocolSanitizer()
    thread = make_thread(interval_id=3)
    san.on_interval_open(thread)
    san.on_interval_close(thread, thread.current_interval)
    thread.current_interval = IntervalRecord(0, 3)  # reused id
    with expect("SAN001"):
        san.on_interval_open(thread)


def test_san001_open_at_run_end():
    san = ProtocolSanitizer()
    thread = make_thread()
    san.on_interval_open(thread)
    with expect("SAN001"):
        san.on_run_end([thread])


# ---------------------------------------------------------------------------
# SAN002: at-most-once OAL logging
# ---------------------------------------------------------------------------


def test_san002_double_oal_log():
    san = ProtocolSanitizer()
    thread = make_thread()
    san.on_interval_open(thread)
    san.on_oal_log(thread, 1, obj_id=7)
    with expect("SAN002"):
        san.on_oal_log(thread, 1, obj_id=7)


def test_san002_log_into_wrong_interval():
    san = ProtocolSanitizer()
    thread = make_thread()
    san.on_interval_open(thread)
    with expect("SAN002"):
        san.on_oal_log(thread, 99, obj_id=7)


# ---------------------------------------------------------------------------
# SAN003: copy-state legality
# ---------------------------------------------------------------------------


def _djvm_with_object():
    djvm, san = sanitized_djvm()
    jclass = djvm.define_class("X", instance_size=64)
    obj = djvm.allocate(jclass, home_node=0)
    return djvm, san, obj


def plant(djvm, node_id, obj, state, fetched=0, dirty=None):
    """Write node ``node_id``'s copy of ``obj`` into its columns behind
    the protocol's back: a state byte, a fetched version and, with
    ``dirty``, a twin."""
    heap = djvm.hlrc.heaps[node_id]
    heap.state[obj.obj_id] = state
    heap.fetched[obj.obj_id] = fetched
    if dirty is not None:
        heap.twins[obj.obj_id] = [dirty, {0}]


def test_san003_cache_copy_claiming_home():
    djvm, san, obj = _djvm_with_object()
    plant(djvm, 1, obj, HOME)
    with expect("SAN003"):
        san.sweep_heaps()


def test_san003_home_copy_invalidated():
    djvm, san, obj = _djvm_with_object()
    plant(djvm, 0, obj, INVALID)
    with expect("SAN003"):
        san.sweep_heaps()


def test_san003_spurious_invalidation():
    djvm, san, obj = _djvm_with_object()
    plant(djvm, 1, obj, INVALID, fetched=djvm.hlrc.home_version[obj.obj_id])
    with expect("SAN003"):
        san.sweep_heaps()


def test_san003_dirty_bytes_exceed_size():
    djvm, san, obj = _djvm_with_object()
    plant(djvm, 1, obj, VALID, dirty=obj.size_bytes + 1)
    with expect("SAN003"):
        san.sweep_heaps()


def test_san003_clean_sweep_counts_copies():
    djvm, san, obj = _djvm_with_object()
    plant(djvm, 1, obj, VALID, fetched=djvm.hlrc.home_version[obj.obj_id])
    assert san.sweep_heaps() >= 1


def test_san003_corrupt_copy_caught_at_run_end_of_a_bare_interpreter():
    """The end-of-run sweep rides ``on_run_end``, which the interpreter
    emits itself — a directly constructed Interpreter (no DJVM.run) gets
    it too."""
    from repro.runtime import program as P
    from repro.runtime.interpreter import Interpreter

    djvm, san, obj = _djvm_with_object()
    djvm.spawn_thread(0)
    plant(djvm, 1, obj, HOME)
    interp = Interpreter(djvm.hlrc, djvm.threads)
    interp.attach_programs({0: [P.compute(100)]})
    with expect("SAN003"):
        interp.run()
    assert san.checks_run > 0


# ---------------------------------------------------------------------------
# SAN004: barrier accounting
# ---------------------------------------------------------------------------


def test_san004_double_arrival():
    san = ProtocolSanitizer()
    san.on_barrier_arrive(make_thread(1, now_ns=10), 0, 4)
    with expect("SAN004"):
        san.on_barrier_arrive(make_thread(1, now_ns=20), 0, 4)


def test_san004_arrivals_exceed_parties():
    san = ProtocolSanitizer()
    san.on_barrier_arrive(make_thread(0, now_ns=10), 0, 1)
    with expect("SAN004"):
        san.on_barrier_arrive(make_thread(1, now_ns=20), 0, 1)


def test_san004_over_release():
    san = ProtocolSanitizer()
    san.on_barrier_arrive(make_thread(0, now_ns=10), 0, 2)
    san.on_barrier_arrive(make_thread(1, now_ns=20), 0, 2)
    with expect("SAN004"):
        san.on_barrier_release(0, 2, [0, 1, 1], 30, {})


def test_san004_released_set_mismatch():
    san = ProtocolSanitizer()
    san.on_barrier_arrive(make_thread(0, now_ns=10), 0, 2)
    san.on_barrier_arrive(make_thread(1, now_ns=20), 0, 2)
    with expect("SAN004"):
        san.on_barrier_release(0, 2, [0, 2], 30, {})


# ---------------------------------------------------------------------------
# SAN005: time monotonicity
# ---------------------------------------------------------------------------


def test_san005_kernel_clock_rewind():
    san = ProtocolSanitizer()
    san.on_event_pop(100, None)
    with expect("SAN005"):
        san.on_event_pop(50, None)


def test_san005_release_before_last_arrival():
    san = ProtocolSanitizer()
    san.on_barrier_arrive(make_thread(0, now_ns=10), 0, 2)
    san.on_barrier_arrive(make_thread(1, now_ns=500), 0, 2)
    with expect("SAN005"):
        san.on_barrier_release(0, 2, [0, 1], 400, {})


# ---------------------------------------------------------------------------
# SAN006: sticky-set membership
# ---------------------------------------------------------------------------


class _StubFootprinter:
    def __init__(self, candidates):
        self.tracked_ever = {}
        self._candidates = candidates

    def live_sticky_candidates(self, thread):
        return list(self._candidates)


def test_san006_stray_sticky_candidate():
    san = ProtocolSanitizer()
    san.on_suite_attach(SimpleNamespace(footprinter=_StubFootprinter([42])))
    thread = make_thread()
    result = MigrationResult(
        thread_id=0, from_node=0, to_node=1, stack_slots=0, direct_cost_ns=0
    )
    with expect("SAN006"):
        san.on_migration(thread, result, 0)


@pytest.mark.parametrize("order", ["sanitizer_first", "suite_first"])
def test_san006_membership_checked_whichever_side_attaches_first(order, monkeypatch):
    """A sanitizer attached after the ``ProfilerSuite`` used to miss
    ``on_suite_attach`` and skip the membership half of SAN006 silently."""
    from repro.checks.runner import _schedule_migration
    from repro.core.footprint import StickySetFootprinter

    workload = SORWorkload(n=128, rounds=2, n_threads=4, seed=11)
    djvm = DJVM(n_nodes=4)
    san = ProtocolSanitizer()
    if order == "sanitizer_first":
        djvm.attach(san)
    workload.build(djvm, placement="round_robin")
    suite = ProfilerSuite(djvm, correlation=True, footprint=True, stack=True)
    if order == "suite_first":
        djvm.attach(san)
    assert san._footprinter is suite.footprinter
    suite.set_rate_all(4)
    _schedule_migration(djvm, suite)
    monkeypatch.setattr(
        StickySetFootprinter, "live_sticky_candidates", lambda self, thread: [10**9]
    )
    with expect("SAN006"):
        djvm.run(workload.programs())


def test_san006_prefetched_copy_not_valid_at_target():
    djvm, san, obj = _djvm_with_object()
    thread = djvm.spawn_thread(0)
    result = MigrationResult(
        thread_id=0,
        from_node=0,
        to_node=1,
        stack_slots=0,
        direct_cost_ns=0,
        prefetched_ids=[obj.obj_id],  # nothing was installed at node 1
    )
    with expect("SAN006"):
        san.on_migration(thread, result, 0)


# ---------------------------------------------------------------------------
# SAN007: write-notice discipline
# ---------------------------------------------------------------------------


def test_san007_notice_version_not_increasing():
    san = ProtocolSanitizer()
    thread = make_thread()
    san.on_notice(thread, 5, 3)
    with expect("SAN007"):
        san.on_notice(thread, 5, 3)


def test_san007_written_object_missing_from_access_log():
    san = ProtocolSanitizer()
    thread = make_thread()
    san.on_interval_open(thread)
    thread.current_interval.written.add(9)  # never touched via access()
    with expect("SAN007"):
        san.on_interval_close(thread, thread.current_interval)


# ---------------------------------------------------------------------------
# violation structure
# ---------------------------------------------------------------------------


def test_violation_carries_code_and_trace():
    san = ProtocolSanitizer()
    san.on_event_pop(100, None)
    san.on_barrier_arrive(make_thread(2, now_ns=100), 3, 4)
    try:
        san.on_barrier_arrive(make_thread(2, now_ns=110), 3, 4)
    except SanitizerViolation as violation:
        assert violation.code == "SAN004"
        assert violation.trace  # ring buffer attached
        assert "barrier_arrive b3 t2" in str(violation)
        assert san.violations == 1
    else:  # pragma: no cover
        pytest.fail("expected SanitizerViolation")


def test_invariant_catalog_complete():
    assert set(INVARIANTS) == {f"SAN00{i}" for i in range(1, 8)}


# ---------------------------------------------------------------------------
# clean runs + byte-identity
# ---------------------------------------------------------------------------


def _profiled_run(*, sanitize: bool):
    workload = SORWorkload(n=128, rounds=2, n_threads=4, seed=7)
    djvm = DJVM(n_nodes=4)
    if sanitize:
        djvm.attach(ProtocolSanitizer())
    workload.build(djvm, placement="round_robin")
    suite = ProfilerSuite(djvm, correlation=True, footprint=True, stack=True)
    suite.set_rate_all(4)
    result = djvm.run(workload.programs())
    return djvm, result, suite


def test_sanitized_workload_run_is_clean():
    djvm, _, _ = _profiled_run(sanitize=True)
    (san,) = djvm.hlrc.observers
    assert san.violations == 0
    assert san.checks_run > 1000  # really hooked in, not idle


def test_sanitizer_does_not_perturb_results():
    """TCM checksum, thread clocks and protocol counters must be
    byte-identical with the sanitizer on and off."""
    on = run_fingerprint(*_profiled_run(sanitize=True))
    off = run_fingerprint(*_profiled_run(sanitize=False))
    assert on == off


def test_run_twice_byte_identity():
    """Two identical runs produce bit-identical results — the contract
    the simlint hazard fixes (sorted set iteration) protect."""
    first = run_fingerprint(*_profiled_run(sanitize=False))
    second = run_fingerprint(*_profiled_run(sanitize=False))
    assert first == second


def test_sanitized_migration_run_is_clean():
    """The check-gate runner's migration path (SAN006 on real traffic)."""
    from repro.checks.runner import run_checked

    workload = SORWorkload(n=128, rounds=2, n_threads=4, seed=11)
    san = ProtocolSanitizer()
    run_checked(workload, san, migrate=True)
    assert san.violations == 0
    assert san.checks_run > 0


# ---------------------------------------------------------------------------
# SAN003 at interval close, on the route that ships
# ---------------------------------------------------------------------------


def test_san003_touched_copy_invalid_at_close():
    djvm, san = sanitized_djvm()
    cls = djvm.define_class("Obj", 64)
    obj = djvm.allocate(cls, 1)
    thread = djvm.spawn_thread(0)
    djvm.hlrc.open_interval(thread)
    djvm.hlrc.access(thread, obj.obj_id)
    djvm.hlrc.heaps[0].state[obj.obj_id] = INVALID
    with expect("SAN003"):
        djvm.hlrc.close_interval(thread, "end")


def test_san003_ids_touched_before_a_migration_need_no_copy_where_it_closes():
    """After a move the interval's earlier ids may be absent or invalid
    on the new node; the ones touched there are checked."""
    djvm, san = sanitized_djvm(n_nodes=3)
    cls = djvm.define_class("Obj", 64)
    before, after = djvm.allocate(cls, 2), djvm.allocate(cls, 2)
    thread = djvm.spawn_thread(0)
    djvm.hlrc.open_interval(thread)
    djvm.hlrc.access(thread, before.obj_id)
    plant(djvm, 1, before, INVALID, fetched=-1)
    djvm.migration.migrate(thread, 1)
    djvm.hlrc.access(thread, after.obj_id)
    djvm.hlrc.close_interval(thread, "barrier")
    assert san.violations == 0
    djvm.hlrc.open_interval(thread)
    djvm.hlrc.access(thread, after.obj_id)
    djvm.hlrc.heaps[1].state[after.obj_id] = INVALID
    with expect("SAN003"):
        djvm.hlrc.close_interval(thread, "end")


def test_sanitize_gate_counts_are_equal_on_both_routes(monkeypatch):
    """The gate's runs take the one pass, and the sanitizer counts the
    same checks there as on the scalar loop."""
    import functools

    from repro.checks import runner

    vector = runner.run_sanitize_all(verbose=False)
    monkeypatch.setattr(runner, "DJVM", functools.partial(DJVM, replay="scalar"))
    scalar = runner.run_sanitize_all(verbose=False)
    assert all(routing == {} for *_, routing in scalar)
    assert [r[:3] for r in vector] == [r[:3] for r in scalar]
    for name, checks, violations, routing in vector:
        assert routing["runs"] > 0, name
        assert checks > 0 and violations == 0


@pytest.mark.parametrize("mutate", [False, True], ids=["intact", "stale_home_byte"])
def test_seeded_rehoming_bug_is_caught_on_the_vector_route(mutate, monkeypatch):
    """A re-homing that leaves the old home's HOME state byte in place
    lets the one pass's probe take that node's copy for current forever
    (it never faults the object again).  SAN003 catches it on the one
    pass."""
    from repro.dsm.homemigration import HomeMigrationEngine
    from tests.dsm.test_notice_path import MAKERS, Rehome
    from tests.runtime.test_vector_replay import build_djvm

    if mutate:
        migrate_home = HomeMigrationEngine.migrate_home

        def stale_home_byte(self, obj, new_home):
            old_heap = self.hlrc.heaps[obj.home_node]
            held = old_heap.state[obj.obj_id]
            migrate_home(self, obj, new_home)
            old_heap.state[obj.obj_id] = held

        monkeypatch.setattr(HomeMigrationEngine, "migrate_home", stale_home_byte)
    djvm, obj_ids = build_djvm(replay="vector")
    san = djvm.attach(ProtocolSanitizer())
    moves = {3: (0, 1), 5: (1, 2), 8: (2, 3), 12: (3, 0)}
    rehome = Rehome(djvm.hlrc, {k: (obj_ids[i], n) for k, (i, n) in moves.items()})
    rehome.check = lambda: None  # the seeded bug must reach the sanitizer
    djvm.add_hook(rehome)
    programs = MAKERS["repeating"](1, obj_ids)
    if mutate:
        with expect("SAN003"):
            djvm.run(programs)
        return
    djvm.run(programs)
    assert san.violations == 0
    assert djvm.replay_routing["runs"] > 0
