"""The write-notice path against a reference fold.

Randomized data-race-free programs (lock pairs, barriers, repeated and
revisited bodies) run on both replay routes while a close hook re-homes
objects between body executions.  At every notice application the
copies the engine invalidates must be exactly the ones a plain walk of
the unseen notices, in log order, invalidates: a ``VALID`` copy whose
fetched version is below a notice's version.  At every close a node
holds a ``HOME`` state byte exactly for the objects homed there, and the log
must stay what the engine's apply relies on: ascending blocks, one
notice per version bump.

Beside it runs a reference GOS (:class:`ReferenceGOS`): one version
history per object, advanced by each closing interval's writes as the
program states them, with no caches, twins or diffs.  On data-race-free
programs every read must see the version that history holds.

The reference also keeps a running cost per thread, priced straight
from the :class:`~repro.sim.costs.CostModel` and the network's
latency, bandwidth and topology constants (:class:`Prices`): each op's
access and compute, and for each fault a trap plus a request and a
reply.  Between opening an interval and closing it a thread only runs
its ops, so its clock must move by exactly what the reference prices
them at, and every re-armed access must see the reference's clock.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks.racedetect import RaceDetector
from repro.checks.sanitizer import ProtocolSanitizer
from repro.checks.staticflow import analyze_ir, uncovered_dynamic
from repro.dsm.hlrc import FETCH_REPLY_OVERHEAD, FETCH_REQ_BYTES
from repro.dsm.homemigration import HomeMigrationEngine
from repro.dsm.observer import ProtocolObserver
from repro.dsm.states import RealState
from repro.runtime import program as P
from repro.sim.network import NS_PER_S, Network, RackTopology
from tests.runtime.test_vector_replay import (
    HOOK_CONFIGS,
    ChargingHook,
    RearmingHook,
    build_djvm,
    held_once,
    random_programs,
    repeating_programs,
    revisiting_programs,
)

MAKERS = {
    "random": random_programs,
    "repeating": repeating_programs,
    "revisiting": revisiting_programs,
}


def check_home_bytes(hlrc) -> None:
    """A node holds an object's HOME state byte iff it is the object's
    home and holds a copy."""
    for node_id in hlrc.heaps:
        for oid in hlrc.copy_ids(node_id):
            at_home = hlrc.gos.get(oid).home_node == node_id
            assert hlrc.copy(node_id, oid).is_home == at_home, f"node {node_id}: obj {oid}"


class Rehome:
    """A planned hook that re-homes objects at chosen interval closes
    (as a home-migration policy does), checking the HOME state bytes
    at every close."""

    def __init__(self, hlrc, moves: dict[int, tuple[int, int]]) -> None:
        self.hlrc = hlrc
        self.engine = HomeMigrationEngine(hlrc)
        self.moves = moves
        #: the check run at every close (a test seeding a re-homing bug
        #: for another checker to find replaces it).
        self.check = lambda: check_home_bytes(hlrc)
        self.closes = 0
        #: (id, new home) of each re-homing so far, in order (a re-homing
        #: publishes no notice: the data did not change).
        self.rehomed: list[tuple[int, int]] = []

    def on_interval_open(self, thread) -> None:
        pass

    def on_access(self, thread, obj, **kwargs) -> None:
        pass

    def fast_on_access(self, thread, ids, faulted):
        return None

    def on_interval_close(self, thread, interval, sync_dst) -> None:
        self.check()
        self.closes += 1
        move = self.moves.get(self.closes)
        if move is not None:
            obj_id, node = move
            obj = self.hlrc.gos.get(obj_id)
            if obj.home_node != node:
                self.rehomed.append((obj_id, node))
            self.engine.migrate_home(obj, node)
            self.check()


class NoticeLog(ProtocolObserver):
    """The notice log as ``(obj_id, version)`` in ordinal order, recorded
    from the notices observers see (every one, in log order), and each
    published block's ids, recorded by wrapping the engine's publish."""

    def __init__(self, hlrc) -> None:
        self.notices: list[tuple[int, int]] = []
        self.blocks: list[list[int]] = []
        real_publish = hlrc.publish

        def publish(block):
            self.blocks.append(block.tolist())
            real_publish(block)

        hlrc.publish = publish

    def on_notice(self, thread, obj_id, version) -> None:
        self.notices.append((obj_id, version))


def checked_apply(hlrc, log: NoticeLog):
    """Wrap the engine's apply: compare its invalidations with the
    reference fold over the same unseen notices of ``log``."""
    real_apply = hlrc.apply_notices
    applies = []

    def apply(thread):
        check_home_bytes(hlrc)
        node_id = thread.node_id
        start = hlrc._notice_seen[node_id]
        before = {oid: hlrc.copy(node_id, oid)[:2] for oid in hlrc.copy_ids(node_id)}
        valid = {oid for oid, (state, _) in before.items() if state is RealState.VALID}
        expected = set()
        for obj_id, version in log.notices[start:]:
            if obj_id in valid and before[obj_id][1] < version:
                valid.discard(obj_id)
                expected.add(obj_id)
        n_new = real_apply(thread)
        assert n_new == hlrc.n_notices - start
        for obj_id in expected:
            before[obj_id] = (RealState.INVALID, before[obj_id][1])
        assert {oid: hlrc.copy(node_id, oid)[:2] for oid in hlrc.copy_ids(node_id)} == before
        applies.append(len(expected))
        return n_new

    hlrc.apply_notices = apply
    return applies


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    maker=st.sampled_from(sorted(MAKERS)),
    replay=st.sampled_from(["scalar", "vector"]),
    homes=st.sampled_from(["cyclic", "block"]),
    moves=st.dictionaries(
        st.integers(1, 40), st.tuples(st.integers(0, 31), st.integers(0, 3)), max_size=6
    ),
)
def test_notice_application_matches_the_reference_fold(seed, maker, replay, homes, moves):
    djvm, obj_ids = build_djvm(replay=replay, homes=homes)
    hlrc = djvm.hlrc
    hook = Rehome(hlrc, {k: (obj_ids[i], node) for k, (i, node) in moves.items()})
    djvm.add_hook(hook)
    log = djvm.attach(NoticeLog(hlrc))
    applies = checked_apply(hlrc, log)
    djvm.run(MAKERS[maker](seed, obj_ids))
    check_home_bytes(hlrc)
    assert applies and hook.closes
    # Every block is ascending and distinct, and every version bump has
    # its notice: an object's versions are 1, 2, ... in log order.
    for ids in log.blocks:
        assert ids == sorted(set(ids))
    assert sum(map(len, log.blocks)) == len(log.notices) == hlrc.n_notices
    seen: Counter = Counter()
    for obj_id, version in log.notices:
        seen[obj_id] += 1
        assert version == seen[obj_id]
    for obj in hlrc.gos:
        assert hlrc.home_version[obj.obj_id] == seen[obj.obj_id]


# -- the reference GOS: values -------------------------------------------
#
# HLRC lets a read see a cache copy fetched at some earlier fault.  On a
# data-race-free program the read must see the latest version of the
# object: any write not ordered before the read by synchronization would
# race with it.  Nothing changes a copy inside an interval (notices apply
# only at sync points), so checking each read's copy when its interval
# closes checks the read, on both replay routes.

_SYNC = (P.OP_ACQUIRE, P.OP_RELEASE, P.OP_BARRIER)
_ACCESS = (P.OP_READ, P.OP_WRITE)
#: the lock every access span outside a lock pair runs under.
SPAN_LOCK = 2


def race_free(programs: dict[int, list], obj_ids: list[int]) -> dict[int, list]:
    """``programs`` made data-race free with their bodies kept, so a
    body that repeats still repeats (each held once, as
    :func:`held_once` emits it): lock ``l``'s pairs (l = 0, 1) guard
    ``obj_ids[l]`` alone — every access inside one goes there, every
    access outside one goes elsewhere — and every access span between
    sync points runs under :data:`SPAN_LOCK`.  The outer CALL/RET stay
    outside the lock pairs."""
    guarded = {0: obj_ids[0], 1: obj_ids[1]}
    elsewhere = {obj_ids[0]: obj_ids[2], obj_ids[1]: obj_ids[3]}
    out = {}
    for tid, ops in programs.items():
        head, *body, tail = ops
        new = [head]
        span: list = []
        held = None

        def flush() -> None:
            if any(op[0] in _ACCESS for op in span):
                new.extend([P.acquire(SPAN_LOCK), *span, P.release(SPAN_LOCK)])
            else:
                new.extend(span)
            span.clear()

        for op in body:
            code = op[0]
            if code in _SYNC:
                flush()
                held = op[1] if code == P.OP_ACQUIRE else None
                new.append(op)
            elif held is not None:
                new.append((code, guarded[held], *op[2:]) if code in _ACCESS else op)
            else:
                if code in _ACCESS:
                    op = (code, elsewhere.get(op[1], op[1]), *op[2:])
                span.append(op)
        flush()
        new.append(tail)
        out[tid] = held_once(new)
    return out


def program_intervals(ops: list) -> list[tuple[set[int], set[int], list]]:
    """(objects read, objects written, ops) of each interval of one
    thread's program, in order: a sync op closes one, and so does the
    end."""
    intervals = [(set(), set(), [])]
    for op in ops:
        if op[0] in _SYNC:
            intervals.append((set(), set(), []))
        else:
            intervals[-1][2].append(op)
            if op[0] in _ACCESS:
                intervals[-1][op[0]].add(op[1])
    return intervals


#: a bandwidth at which a byte takes no whole number of nanoseconds, so
#: truncating a sum of message times instead of each one shows.
ODD_BANDWIDTH = 11.7e6

#: the replay configurations, plus one whose messages do not price to
#: whole nanoseconds.
PRICE_CONFIGS = {
    **HOOK_CONFIGS,
    "odd_bandwidth": lambda: {"network": Network(bandwidth_bytes_per_s=ODD_BANDWIDTH)},
}


class Prices:
    """What each op costs, straight from the :class:`~repro.sim.costs.
    CostModel` and the network's constants (flat latency, bandwidth,
    header, and a :class:`RackTopology`'s rack size and hop latencies),
    never from ``fetch_wait_ns`` or ``Network.message_ns``: an access's
    busy time per repeat, a compute's scaled time, a frame push or pop,
    a fault's trap plus request plus reply (each message serialized
    whole, truncated to nanoseconds on its own), a twin per byte, and
    what the test hooks charge — a :class:`ChargingHook` at each first
    touch, a :class:`RearmingHook` at each re-armed access."""

    def __init__(self, djvm, *, charging: bool, rearming: bool) -> None:
        self.costs = djvm.costs
        self.network = djvm.hlrc.network
        self.busy = self.costs.state_check_ns + self.costs.access_ns
        self.size = {}
        for obj in djvm.gos:
            cls = obj.jclass
            payload = obj.length * cls.element_size if cls.is_array else 0
            self.size[obj.obj_id] = cls.instance_size + payload
        self.charging = charging
        self.rearming = rearming

    def latency(self, src: int, dst: int) -> int:
        topology = self.network.topology
        if topology is None:
            return self.network.latency_ns
        assert type(topology) is RackTopology
        if src // topology.rack_size == dst // topology.rack_size:
            return topology.intra_ns
        return topology.cross_ns

    def message(self, payload: int, src: int, dst: int) -> int:
        serialized = (payload + self.network.header_bytes) / self.network.bandwidth_bytes_per_s
        return self.latency(src, dst) + int(serialized * NS_PER_S)

    def fault(self, node: int, home: int, obj_id: int) -> int:
        request = self.message(FETCH_REQ_BYTES, node, home)
        reply = self.message(self.size[obj_id] + FETCH_REPLY_OVERHEAD, home, node)
        return self.costs.gos_trap_ns + request + reply


#: a node's copy of an object that is its home copy (a cache copy holds
#: the version it was fetched at, a stale or missing one None).
AT_HOME = "home"


class ReferenceGOS:
    """Sequential consistency at sync points: each object's history
    holds, per version, the (thread, interval) close that wrote it, in
    close order.  A re-homing moves the home and makes no version: the
    data did not change.  What each interval reads and writes comes from
    the program, not from the engine.

    Priced (``prices``), it also runs each interval's ops in program
    order when the interval closes — a thread runs them all between
    opening and closing it, with nothing else running — and keeps a
    running cost per thread.  Which accesses fault follows from a plain
    per-node copy table: a home copy never faults, a missing or stale
    cache copy does and is then current, and a node applying notices
    makes stale every cache copy fetched before its object's latest
    version."""

    def __init__(self, programs: dict[int, list], homes=None, prices=None) -> None:
        self.intervals = {tid: program_intervals(ops) for tid, ops in programs.items()}
        self.history: dict[int, list[tuple[int, int]]] = {}
        self.closed: Counter = Counter()
        self.reads_checked = 0
        #: each object's home node, and each node's copies (see AT_HOME).
        self.home = dict(homes or {})
        self.held: dict[int, dict] = {}
        self.prices = prices
        #: the running cost per thread: what its intervals' ops cost.
        self.spent: Counter = Counter()

    def version(self, obj_id: int) -> int:
        return len(self.history.get(obj_id, ()))

    def writer(self, obj_id: int, version: int) -> tuple[int, int] | None:
        """Who wrote what a read of ``version`` sees."""
        return self.history[obj_id][version - 1] if version else None

    def reads(self, tid: int) -> set[int]:
        return self.intervals[tid][self.closed[tid]][P.OP_READ]

    def price(self, tid: int, node: int, clock: int) -> tuple[int, list[tuple[int, int]]]:
        """Run ``tid``'s open interval on ``node`` from ``clock``: the
        clock after its last op, and (object, clock) at each re-armed
        access, before its tracking charge.  Within an op the scalar
        loop's order holds: busy time, fault, twin (first write of an
        interval to a cache copy), first-touch charge, stop."""
        p = self.prices
        costs = p.costs
        held = self.held.setdefault(node, {})
        touched: set[int] = set()
        twinned: set[int] = set()
        stops = []
        start = clock
        for op in self.intervals[tid][self.closed[tid]][2]:
            code = op[0]
            if code == P.OP_COMPUTE:
                clock += int(op[1] * costs.compute_scale)
            elif code == P.OP_CALL:
                clock += costs.frame_push_ns
            elif code == P.OP_RET:
                clock += costs.frame_pop_ns
            else:
                assert code in _ACCESS, f"no price for opcode {code}"
                obj_id = op[1]
                home = self.home[obj_id]
                clock += p.busy * op[3]
                faulted = False
                if home == node:
                    held[obj_id] = AT_HOME
                elif held.get(obj_id) is None:
                    held[obj_id] = self.version(obj_id)
                    clock += p.fault(node, home, obj_id)
                    faulted = True
                if code == P.OP_WRITE and home != node and obj_id not in twinned:
                    twinned.add(obj_id)
                    clock += p.size[obj_id] * costs.twin_ns_per_byte
                if obj_id not in touched:
                    touched.add(obj_id)
                    if p.charging:
                        clock += ChargingHook.CHARGE_NS * (1 + (not faulted))
                if p.rearming and obj_id % 2 == 0:
                    stops.append((obj_id, clock))
                    clock += RearmingHook.TRACK_NS
        self.spent[tid] += clock - start
        return clock, stops

    def apply(self, node: int) -> None:
        """``node`` applies every notice published so far."""
        held = self.held.setdefault(node, {})
        for obj_id, fetched in held.items():
            if fetched not in (None, AT_HOME) and fetched < self.version(obj_id):
                held[obj_id] = None

    def close(self, tid: int, node: int, rehomed=()) -> None:
        """``tid`` closed its next interval on ``node``, whose close hooks
        re-homed ``rehomed`` ((object, new home) pairs).  A cache copy
        the interval wrote holds the version its diff made; the old
        home's copy, if it has one, becomes a cache copy of the current
        version, and every other copy keeps what it holds."""
        k = self.closed[tid]
        held = self.held.setdefault(node, {})
        for obj_id in sorted(self.intervals[tid][k][P.OP_WRITE]):
            self.history.setdefault(obj_id, []).append((tid, k))
            if held.get(obj_id) not in (None, AT_HOME):
                held[obj_id] = self.version(obj_id)
        for obj_id, node in rehomed:
            old = self.held.setdefault(self.home[obj_id], {})
            if old.get(obj_id) == AT_HOME:
                old[obj_id] = self.version(obj_id)
            self.held.setdefault(node, {})[obj_id] = AT_HOME
            self.home[obj_id] = node
        self.closed[tid] += 1


def version_seen(hlrc, node_id: int, obj_id: int) -> int:
    """The version a read on ``node_id`` sees: the home's for a home copy
    (always current), the fetched one for a cache copy."""
    copy = hlrc.copy(node_id, obj_id)
    assert copy is not None and copy.real_state is not RealState.INVALID, (
        f"object {obj_id} read on node {node_id} without a valid copy"
    )
    if copy.is_home:
        return hlrc.home_version[obj_id]
    return copy.fetched_version


def checked_sync(hlrc, reference: ReferenceGOS, rehome: Rehome, tracker=None) -> None:
    """Wrap the engine's interval open and close and its notice
    application.  Before a close, every object the closing interval read
    must show, on the thread's node, a version by the writer of the
    reference's latest; after it, the reference takes the interval's
    writes and the re-homings its close made.  After an application,
    every valid cache copy on the node — what any read there would see —
    must do the same.

    Prices: at a close, the thread's clock must equal its clock when the
    interval opened plus what the reference prices the interval's ops
    at, and ``tracker`` (a :class:`RearmingHook`), if given, must have
    seen the reference's clock at each of the interval's stops."""
    real_open = hlrc.open_interval
    real_close = hlrc.close_interval
    real_apply = hlrc.apply_notices
    opened: dict[int, int] = {}
    stops_seen: Counter = Counter()

    def check(thread, obj_ids, what: str) -> None:
        for obj_id in obj_ids:
            seen = reference.writer(obj_id, version_seen(hlrc, thread.node_id, obj_id))
            expected = reference.writer(obj_id, reference.version(obj_id))
            assert seen == expected, (
                f"thread {thread.thread_id} {what} object {obj_id} as written by {seen}; "
                f"its history says {expected}"
            )
            reference.reads_checked += 1

    def check_price(thread) -> None:
        tid = thread.thread_id
        clock, stops = reference.price(tid, thread.node_id, opened[tid])
        where = f"thread {tid} interval {reference.closed[tid]}"
        assert thread.clock.now_ns == clock, (
            f"{where} closes at {thread.clock.now_ns} ns; the reference prices it at {clock}"
        )
        if tracker is not None:
            mine = [(oid, ns) for t, oid, ns in tracker.tracked if t == tid]
            assert mine[stops_seen[tid] :] == stops, f"{where}: stops at the wrong clock"
            stops_seen[tid] = len(mine)

    def open_interval(thread) -> None:
        real_open(thread)
        opened[thread.thread_id] = thread.clock.now_ns

    def close(thread, reason, sync_dst=None):
        tid = thread.thread_id
        check(thread, sorted(reference.reads(tid)), f"interval {reference.closed[tid]} read")
        check_price(thread)
        moved = len(rehome.rehomed)
        interval = real_close(thread, reason, sync_dst)
        reference.close(tid, thread.node_id, rehome.rehomed[moved:])
        return interval

    def apply(thread):
        n_new = real_apply(thread)
        reference.apply(thread.node_id)
        node_id = thread.node_id
        valid = [
            oid
            for oid in hlrc.copy_ids(node_id)
            if hlrc.copy(node_id, oid).real_state is RealState.VALID
        ]
        check(thread, valid, "holds a valid copy of")
        return n_new

    hlrc.open_interval = open_interval
    hlrc.close_interval = close
    hlrc.apply_notices = apply


def run_beside_reference(
    seed, maker, replay, config, homes, moves, *, charging=False, rearming=False
) -> dict[str, int]:
    """One race-free program under HLRC and the reference, with a close
    hook re-homing ``moves`` ({close: (object index, node)}) and, when
    asked, a :class:`ChargingHook` and a :class:`RearmingHook` after it.
    Returns the run's replay routing."""
    djvm, obj_ids = build_djvm(replay=replay, homes=homes, **PRICE_CONFIGS[config]())
    hlrc = djvm.hlrc
    programs = race_free(MAKERS[maker](seed, obj_ids), obj_ids)
    rehome = Rehome(hlrc, {k: (obj_ids[i], node) for k, (i, node) in moves.items()})
    djvm.add_hook(rehome)
    if charging:
        djvm.add_hook(ChargingHook())
    tracker = RearmingHook() if rearming else None
    if tracker is not None:
        djvm.add_hook(tracker)
    homes_at_start = {obj.obj_id: obj.home_node for obj in hlrc.gos}
    prices = Prices(djvm, charging=charging, rearming=rearming)
    reference = ReferenceGOS(programs, homes_at_start, prices)
    checked_sync(hlrc, reference, rehome, tracker)
    djvm.run(programs)
    assert reference.reads_checked > 0
    assert reference.closed == {tid: len(iv) for tid, iv in reference.intervals.items()}
    assert all(reference.spent[tid] > 0 for tid in reference.intervals)
    for obj in hlrc.gos:
        assert hlrc.home_version[obj.obj_id] == reference.version(obj.obj_id)
    return djvm.replay_routing


MOVES = st.dictionaries(
    st.integers(1, 150), st.tuples(st.integers(0, 31), st.integers(0, 3)), max_size=12
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    maker=st.sampled_from(sorted(MAKERS)),
    replay=st.sampled_from(["scalar", "vector"]),
    config=st.sampled_from(sorted(PRICE_CONFIGS)),
    homes=st.sampled_from(["cyclic", "block"]),
    moves=MOVES,
)
def test_every_read_sees_the_reference_version(seed, maker, replay, config, homes, moves):
    """Data-race-free programs with lock pairs and re-homed objects, on
    flat, rack, scaled-compute and odd-bandwidth configurations, both
    routes: every read sees the version the reference history holds,
    every interval closes once in each model, every home version equals
    its object's history length, and every interval costs what the
    reference prices it at."""
    run_beside_reference(seed, maker, replay, config, homes, moves)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    config=st.sampled_from(sorted(PRICE_CONFIGS)),
    homes=st.sampled_from(["cyclic", "block"]),
    moves=MOVES,
)
def test_hot_bodies_revisited_after_rehoming_see_the_reference_version(
    seed, config, homes, moves
):
    """The same on the one pass: bodies that repeat revisit their nodes
    after objects they touch were re-homed."""
    run_beside_reference(seed, "repeating", "vector", config, homes, moves)


# -- the detectors on the reference's programs ---------------------------
#
# The programs the reference checks values on are data-race free, so the
# protocol sanitizer, the race detector and the static may-race analysis
# must stay silent on them, on both routes.  Seeded with an unlocked write of one object in two
# threads, each in its first interval (which no sync op, and so no
# happens-before edge, can order against another thread's first
# interval), they race: the detector must say so, and the static
# may-race set must hold every report.


def seeded(programs: dict[int, list], obj_id: int) -> dict[int, list]:
    """``programs`` with an unlocked write of ``obj_id`` opening the
    body of threads 0 and 1."""
    out = dict(programs)
    for tid in (0, 1):
        head, *rest = programs[tid]
        out[tid] = [head, P.write(obj_id), *rest]
    return out


def run_detectors(programs, replay: str, homes: str):
    """Run ``programs`` with a sanitizer and a race detector attached;
    returns the detector, the run's replay routing and the static
    analysis of the same programs on the same (unrun) object space."""
    djvm, _ = build_djvm(replay=replay, homes=homes)
    static = analyze_ir(djvm.export_ir(programs))
    sanitizer = djvm.attach(ProtocolSanitizer())
    detector = djvm.attach(RaceDetector())
    djvm.run(programs)
    assert sanitizer.checks_run > 0 and sanitizer.violations == 0
    assert detector.intervals_checked > 0
    return detector, djvm.replay_routing, static


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    maker=st.sampled_from(sorted(MAKERS)),
    replay=st.sampled_from(["scalar", "vector"]),
    homes=st.sampled_from(["cyclic", "block"]),
)
def test_detectors_are_silent_on_race_free_programs(seed, maker, replay, homes):
    _, obj_ids = build_djvm(homes=homes)
    programs = race_free(MAKERS[maker](seed, obj_ids), obj_ids)
    detector, routing, static = run_detectors(programs, replay, homes)
    assert detector.reports == [] and static.races == []
    if replay == "vector":
        assert routing["runs"] > 0


@pytest.mark.parametrize("replay", ["scalar", "vector"])
@pytest.mark.parametrize("maker", sorted(MAKERS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_seeded_unlocked_write_is_flagged_by_both_detectors(seed, maker, replay):
    _, obj_ids = build_djvm()
    target = obj_ids[5]
    programs = seeded(race_free(MAKERS[maker](seed, obj_ids), obj_ids), target)
    detector, _, static = run_detectors(programs, replay, "cyclic")
    ww = {
        (r.first.thread_id, r.second.thread_id)
        for r in detector.reports
        if r.kind == "write-write"
    }
    assert ww & {(0, 1), (1, 0)}
    # every report is a seeded write against some access of the target
    for r in detector.reports:
        assert r.obj_id == target and {0, 1} & {r.first.thread_id, r.second.thread_id}
    assert uncovered_dynamic(static.races, detector.reports) == []


# -- the reference GOS: prices -------------------------------------------
#
# The clock of each thread against the reference's running cost, with a
# first-touch hook charging the clock at every first touch (more for one
# that did not fault) and, walked, a re-arming hook whose stops must see
# the reference's clock.  The routes: the scalar loop; the one pass
# (``lean``: every run's lane sliced from its program's lane table); and
# the one pass walking to the re-armed accesses.

ROUTES = {
    "scalar": ("scalar", False),
    "lean": ("vector", False),
    "walked": ("vector", True),
}


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    maker=st.sampled_from(sorted(MAKERS)),
    route=st.sampled_from(sorted(ROUTES)),
    config=st.sampled_from(sorted(PRICE_CONFIGS)),
    homes=st.sampled_from(["cyclic", "block"]),
    moves=MOVES,
)
def test_thread_clocks_match_the_reference_prices(seed, maker, route, config, homes, moves):
    """Every interval of every thread moves its clock by exactly what the
    reference prices its ops at, and every re-armed access sees the
    reference's clock: faults at their trap, request and reply (their
    arrays' payload included, each message truncated on its own),
    first-touch charges at their first touch, stops at their op."""
    replay, rearming = ROUTES[route]
    run_beside_reference(
        seed, maker, replay, config, homes, moves, charging=True, rearming=rearming
    )


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("config", sorted(PRICE_CONFIGS))
def test_each_route_is_priced(route, config):
    """Each route of the price test takes the path it names — the one
    pass, walked stops — under every configuration."""
    replay, rearming = ROUTES[route]
    routing = run_beside_reference(
        2, "repeating", replay, config, "cyclic", {3: (1, 2), 9: (30, 0)},
        charging=True, rearming=rearming,
    )
    if replay == "vector":
        assert routing["faults_batched"] > 0 and routing["first_touches"] > 0
        assert routing["runs"] > 0
        assert (routing["stops"] > 0) == rearming
