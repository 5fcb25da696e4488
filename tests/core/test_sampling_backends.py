"""Tests for the pluggable sampling backends (hash / Poisson / hybrid)
and their integration with the policy, profiler and replay layers."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import (
    BACKENDS,
    HashBackend,
    HybridBackend,
    PoissonByteBackend,
    PrimeGapBackend,
    SamplingPolicy,
    resolve_backend,
)
from repro.heap.heap import GlobalObjectSpace
from repro.util.primes import is_prime

SRC = Path(__file__).resolve().parents[2] / "src"


def gos_with_classes():
    gos = GlobalObjectSpace()
    gos.registry.define("Body", 96)
    gos.registry.define("double[]", is_array=True, element_size=8)
    gos.registry.define("Small", 64)
    return gos


def make_policy(backend, gos, rate=4):
    policy = SamplingPolicy(backend=backend)
    for jclass in gos.registry:
        policy.set_rate(jclass, rate)
    return policy


# ---------------------------------------------------------------------------
# registry / resolution
# ---------------------------------------------------------------------------


class TestResolution:
    def test_default_is_prime_gap(self):
        assert isinstance(resolve_backend(None), PrimeGapBackend)
        assert SamplingPolicy().backend.name == "prime_gap"

    def test_registry_names(self):
        assert set(BACKENDS) == {"prime_gap", "poisson", "hash", "hybrid"}
        for name, ctor in sorted(BACKENDS.items()):
            assert resolve_backend(name).name == name
            assert ctor.name == name

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_snapshot_counters_agree_with_totals(self, name):
        """The per-class ``samples`` / ``skips`` of ``snapshot()`` are the
        backend's decision counters — also for the hybrid, which counts
        its decisions itself."""
        gos = GlobalObjectSpace()
        gos.registry.define("Obj", 96)
        policy = make_policy(name, gos)
        for _ in range(500):
            policy.decision(gos.allocate("Obj", home_node=0))
        samples, skips = policy.backend.totals()
        assert samples + skips == 500 and samples > 0
        classes = policy.backend.snapshot()["classes"]
        assert classes["Obj"]["samples"] == samples
        assert classes["Obj"]["skips"] == skips

    def test_instance_passthrough(self):
        be = HashBackend(seed=7)
        assert resolve_backend(be) is be

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown sampling backend"):
            resolve_backend("bogus")
        with pytest.raises(TypeError):
            resolve_backend(3.14)


# ---------------------------------------------------------------------------
# prime-gap backend: byte-identity with the historical decision logic
# ---------------------------------------------------------------------------


class TestPrimeGapIdentity:
    def test_scalar_divisibility_preserved(self):
        gos = gos_with_classes()
        policy = make_policy(None, gos, rate=1)
        body = gos.registry.get("Body")
        gap = policy.gap(body)
        assert is_prime(gap)
        for _ in range(5 * gap):
            obj = gos.allocate("Body", home_node=0)
            sampled, logged, scaled = policy.decision(obj)
            assert sampled == (obj.seq % gap == 0)
            if sampled:
                assert logged == body.instance_size
                assert scaled == logged * gap

    def test_scalar_and_batch_agree_and_both_count(self):
        gos = gos_with_classes()
        policy = make_policy("prime_gap", gos, rate=1)
        objs = [gos.allocate("Body", home_node=0) for _ in range(200)]
        batch = policy.decide_batch(objs)
        scalar = [policy.decision(o) for o in objs]
        assert batch == scalar
        # No memo: each call decides, and counts, every object; the
        # policy's views count nothing.
        assert [policy.scaled_bytes(o) for o in objs] == [d[2] for d in scalar]
        samples, skips = policy.backend.totals()
        assert samples + skips == 2 * len(objs)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("rate", [0.25, 1, 4, "full"])
def test_batch_lanes_equal_the_kernel_and_count_alike(backend, rate):
    """Every backend's batch lane (numpy from 64 ids for hash and
    Poisson, the hybrid's split) answers what one ``decision`` per
    object does and counts the same samples and skips per class —
    mixed classes, repeated ids, and arrays long enough that a Poisson
    inclusion probability rounds to 1."""
    gos = gos_with_classes()
    ids = []
    for i in range(240):
        if i % 4 == 0:
            ids.append(gos.allocate("double[]", home_node=0, length=1 + (i * 37) % 6000).obj_id)
        else:
            ids.append(gos.allocate(("Body", "Small", "Body")[i % 4 - 1], home_node=0).obj_id)
    ids = ids + ids[::7]
    batched, single = make_policy(backend, gos, rate), make_policy(backend, gos, rate)
    assert batched.decide_batch(ids, gos) == [single.decision(gos.get(i)) for i in ids]
    assert batched.backend.class_stats() == single.backend.class_stats()
    assert batched.backend.sample_counts == single.backend.sample_counts
    assert batched.backend.skip_counts == single.backend.skip_counts


# ---------------------------------------------------------------------------
# hash backend
# ---------------------------------------------------------------------------


class TestHashBackend:
    def test_deterministic_across_instances(self):
        gos_a, gos_b = gos_with_classes(), gos_with_classes()
        pa = make_policy(HashBackend(seed=3), gos_a)
        pb = make_policy(HashBackend(seed=3), gos_b)
        objs_a = [gos_a.allocate("Body", home_node=0) for _ in range(500)]
        objs_b = [gos_b.allocate("Body", home_node=0) for _ in range(500)]
        assert [pa.decision(o) for o in objs_a] == [pb.decision(o) for o in objs_b]

    def test_deterministic_across_processes(self):
        """The selection key comes from seeded_rng, so a fresh process
        must select exactly the same object ids."""
        prog = (
            "from repro.core.sampling import HashBackend, SamplingPolicy\n"
            "from repro.heap.heap import GlobalObjectSpace\n"
            "gos = GlobalObjectSpace()\n"
            "gos.registry.define('Body', 96)\n"
            "policy = SamplingPolicy(backend=HashBackend(seed=3))\n"
            "policy.set_rate(gos.registry.get('Body'), 4)\n"
            "objs = [gos.allocate('Body', home_node=0) for _ in range(300)]\n"
            "print(''.join('1' if policy.is_sampled(o) else '0' for o in objs))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", prog],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        ).stdout.strip()
        gos = gos_with_classes()
        policy = make_policy(HashBackend(seed=3), gos)
        objs = [gos.allocate("Body", home_node=0) for _ in range(300)]
        here = "".join("1" if policy.is_sampled(o) else "0" for o in objs)
        assert out == here
        assert "1" in here and "0" in here

    def test_scalar_rate_realized(self):
        """Sampled fraction over many scalars approximates 1/gap."""
        gos = gos_with_classes()
        policy = make_policy(HashBackend(seed=0), gos, rate=4)
        body = gos.registry.get("Body")
        gap = policy.gap(body)
        n = 20_000
        objs = [gos.allocate("Body", home_node=0) for _ in range(n)]
        frac = sum(policy.is_sampled(o) for o in objs) / n
        assert frac == pytest.approx(1.0 / gap, rel=0.25)

    def test_array_probability_matches_prime_gap_shape(self):
        """Arrays longer than the gap are always sampled (any-element
        rule); shorter arrays are sampled with probability length/gap."""
        gos = gos_with_classes()
        policy = make_policy(HashBackend(seed=1), gos, rate=4)
        arr = gos.registry.get("double[]")
        gap = policy.gap(arr)
        assert gap > 1
        long = [gos.allocate("double[]", home_node=0, length=gap) for _ in range(50)]
        assert all(policy.is_sampled(o) for o in long)
        n = 8_000
        short_len = max(1, gap // 3)
        short = [gos.allocate("double[]", home_node=0, length=short_len) for _ in range(n)]
        frac = sum(policy.is_sampled(o) for o in short) / n
        assert frac == pytest.approx(short_len / gap, rel=0.2)

    def test_scaled_bytes_horvitz_thompson(self):
        gos = gos_with_classes()
        policy = make_policy(HashBackend(seed=0), gos, rate=4)
        body = gos.registry.get("Body")
        gap = policy.gap(body)
        obj = gos.allocate("Body", home_node=0)
        sampled, logged, scaled = policy.decision(obj)
        assert logged == body.instance_size
        assert scaled == logged * gap

    def test_decide_batch_matches_scalar_vectorized(self):
        """The numpy batch lane (n >= 64) must agree bit-for-bit with the
        scalar kernel, mixed classes and arrays included."""
        gos = gos_with_classes()
        policy = make_policy(HashBackend(seed=5), gos, rate=4)
        objs = []
        for i in range(300):
            if i % 3 == 0:
                objs.append(gos.allocate("double[]", home_node=0, length=1 + i % 40))
            elif i % 3 == 1:
                objs.append(gos.allocate("Body", home_node=0))
            else:
                objs.append(gos.allocate("Small", home_node=0))
        fresh = make_policy(HashBackend(seed=5), gos, rate=4)
        assert policy.decide_batch(objs) == [fresh.decision(o) for o in objs]

    def test_no_resample_pass_needed(self):
        assert HashBackend().needs_resample_pass is False
        assert PrimeGapBackend().needs_resample_pass is True


# ---------------------------------------------------------------------------
# Poisson backend
# ---------------------------------------------------------------------------


class TestPoissonBackend:
    def test_inter_sample_distances_are_exponential(self):
        """Inter-sample byte distances follow Exp(λ) with
        λ = 1/(gap·unit): mean within 10% of 1/λ, variance within 25%
        of 1/λ² (object-granularity discretization adds ~1/gap bias)."""
        gos = GlobalObjectSpace()
        small = gos.registry.define("Small", 64)
        policy = SamplingPolicy(backend=PoissonByteBackend(seed=2))
        policy.set_rate(small, 1)  # 4096/64 = 64 -> prime gap near 64
        gap = policy.gap(small)
        unit = small.instance_size
        inv_lambda = gap * unit
        n = 120_000
        sampled_at = [
            i
            for i in range(n)
            if policy.is_sampled(gos.allocate("Small", home_node=0))
        ]
        assert len(sampled_at) > 500
        dist = np.diff(np.asarray(sampled_at)) * unit
        assert float(dist.mean()) == pytest.approx(inv_lambda, rel=0.10)
        assert float(dist.var()) == pytest.approx(inv_lambda**2, rel=0.25)

    def test_weight_is_inverse_probability(self):
        gos = GlobalObjectSpace()
        small = gos.registry.define("Small", 64)
        policy = SamplingPolicy(backend=PoissonByteBackend(seed=2))
        policy.set_rate(small, 1)
        gap = policy.gap(small)
        obj = gos.allocate("Small", home_node=0)
        p = -math.expm1(-1.0 / gap)
        _, logged, scaled = policy.decision(obj)
        assert logged == small.instance_size
        assert scaled == int(round(small.instance_size / p))

    def test_expected_gap_reflects_discretization(self):
        gos = GlobalObjectSpace()
        small = gos.registry.define("Small", 64)
        policy = SamplingPolicy(backend=PoissonByteBackend(seed=2))
        policy.set_rate(small, 1)
        gap = policy.gap(small)
        # 1/p for p = 1 - exp(-1/gap): slightly above the nominal gap.
        assert gap <= policy.expected_gap(small) <= gap + 1


# ---------------------------------------------------------------------------
# hybrid backend
# ---------------------------------------------------------------------------


class TestHybridBackend:
    def test_split_point_honored(self):
        gos = GlobalObjectSpace()
        tiny = gos.registry.define("Tiny", 48)
        big = gos.registry.define("Big", 512)
        arr = gos.registry.define("double[]", is_array=True, element_size=8)
        backend = HybridBackend(seed=4, split_bytes=256)
        policy = SamplingPolicy(backend=backend)
        for jc in (tiny, big, arr):
            policy.set_rate(jc, 4)
        t = gos.allocate("Tiny", home_node=0)
        b = gos.allocate("Big", home_node=0)
        a = gos.allocate("double[]", home_node=0, length=8)
        assert backend.route(t) is backend.poisson
        assert backend.route(b) is backend.hash
        assert backend.route(a) is backend.hash
        # The routed decision equals the sub-backend's own decision.
        assert policy.decision(t) == backend.poisson.decide(t)
        assert policy.decision(b) == backend.hash.decide(b)

    def test_split_bytes_validated(self):
        with pytest.raises(ValueError):
            HybridBackend(split_bytes=0)

    def test_class_stats_merged(self):
        """The hybrid counts the decisions of both routes itself; its
        sub-backends only compute."""
        gos = GlobalObjectSpace()
        tiny = gos.registry.define("Tiny", 48)
        big = gos.registry.define("Big", 512)
        backend = HybridBackend(seed=4)
        policy = SamplingPolicy(backend=backend)
        policy.set_rate(tiny, 4)
        policy.set_rate(big, 4)
        for _ in range(20):
            policy.decision(gos.allocate("Tiny", home_node=0))
            policy.decision(gos.allocate("Big", home_node=0))
        stats = backend.class_stats()
        assert set(stats) == {tiny.class_id, big.class_id}
        assert all(s + k == 20 for s, k in stats.values())
        assert backend.poisson.class_stats() == backend.hash.class_stats() == {}


# ---------------------------------------------------------------------------
# dead-zone detection (the PAGE_HASH small-working-set failure mode)
# ---------------------------------------------------------------------------


class TestDeadZone:
    def test_small_working_set_flagged(self):
        """A class whose live population x inclusion probability is
        below the threshold is structurally biased and must be flagged,
        even when id reuse keeps hammering the same few objects."""
        gos = GlobalObjectSpace()
        rare = gos.registry.define("Rare", 96)
        common = gos.registry.define("Common", 96)
        policy = SamplingPolicy(backend=HashBackend(seed=0))
        policy.set_rate(rare, 1)  # gap ~41
        policy.set_rate(common, 1)
        for _ in range(30):
            gos.allocate("Rare", home_node=0)
        for _ in range(5_000):
            gos.allocate("Common", home_node=0)
        report = policy.backend.dead_zone_report(gos)
        flagged = {r["class"] for r in report}
        assert "Rare" in flagged
        assert "Common" not in flagged
        rec = next(r for r in report if r["class"] == "Rare")
        assert rec["population"] == 30
        assert rec["expected_samples"] < 2.0

    def test_heavy_id_reuse_does_not_unflag(self):
        """Re-deciding the same objects millions of times never changes
        a stateless selection — the dead zone is permanent, and probing
        it must not perturb the decision counters."""
        gos = GlobalObjectSpace()
        rare = gos.registry.define("Rare", 96)
        policy = SamplingPolicy(backend=HashBackend(seed=0))
        policy.set_rate(rare, 1)
        objs = [gos.allocate("Rare", home_node=0) for _ in range(10)]
        first = [policy.is_sampled(o) for o in objs]
        counts_before = policy.backend.totals()
        for _ in range(50):
            report = policy.backend.dead_zone_report(gos)
            assert [policy.is_sampled(o) for o in objs] == first
        assert policy.backend.totals() == counts_before
        assert {r["class"] for r in report} == {"Rare"}

    def test_full_sampling_never_flagged(self):
        gos = GlobalObjectSpace()
        gos.registry.define("Rare", 96)
        policy = SamplingPolicy(backend=HashBackend(seed=0))
        # gap 1 (default / "full"): every object sampled, nothing to flag.
        for _ in range(3):
            gos.allocate("Rare", home_node=0)
        assert policy.backend.dead_zone_report(gos) == []

    def test_hybrid_report_routes_probabilities(self):
        gos = GlobalObjectSpace()
        rare = gos.registry.define("Rare", 48)  # routes to poisson
        policy = SamplingPolicy(backend=HybridBackend(seed=0))
        policy.set_rate(rare, 1)
        for _ in range(10):
            gos.allocate("Rare", home_node=0)
        report = policy.backend.dead_zone_report(gos)
        assert {r["class"] for r in report} == {"Rare"}


# ---------------------------------------------------------------------------
# integration: profiler plumbing and rate-change behavior
# ---------------------------------------------------------------------------


class TestIntegration:
    def _suite(self, backend):
        from repro.core.profiler import ProfilerSuite
        from repro.runtime.djvm import DJVM

        djvm = DJVM(n_nodes=2)
        djvm.spawn_threads(2)
        return djvm, ProfilerSuite(
            djvm, correlation=True, send_oals=False, sampling_backend=backend
        )

    def test_djvm_backend_plumbing(self):
        djvm, suite = self._suite("hash")
        assert suite.policy.backend.name == "hash"
        assert "fast_on_access" not in vars(suite.access_profiler)

    def test_stateless_rate_change_charges_no_resample(self):
        djvm, suite = self._suite("hash")
        jclass = djvm.gos.registry.define("Body", 96)
        ap = suite.access_profiler
        suite.policy.set_rate(jclass, 4)
        ap.notify_rate_change(jclass)
        assert ap._pending_resample == {}

    def test_prime_gap_rate_change_schedules_resample(self):
        djvm, suite = self._suite(None)
        jclass = djvm.gos.registry.define("Body", 96)
        ap = suite.access_profiler
        suite.policy.set_rate(jclass, 4)
        ap.notify_rate_change(jclass)
        assert any(
            jclass.class_id in pending
            for pending in ap._pending_resample.values()
        )

    def test_replay_filter_matches_direct_policy(self):
        """tcm_at_rate under a stateless backend equals filtering with
        the same policy applied directly (the frontier's foundation)."""
        from repro.analysis.experiments import tcm_at_rate
        from repro.core.oal import OALBatch

        gos = gos_with_classes()
        objs = [gos.allocate("Body", home_node=0) for _ in range(400)]
        batches = []
        for tid in (0, 1):  # both threads touch every object
            batch = OALBatch(thread_id=tid, interval_id=0)
            for o in objs:
                batch.add(o.obj_id, o.jclass.instance_size, o.jclass.class_id)
            batches.append(batch)
        via_replay = tcm_at_rate(batches, gos, 2, 4, backend=HashBackend(seed=9))
        policy = make_policy(HashBackend(seed=9), gos, rate=4)
        expected = sum(
            policy.scaled_bytes(o) for o in objs if policy.is_sampled(o)
        )
        assert via_replay[0, 1] == expected == via_replay[1, 0]
        assert expected > 0

    @pytest.mark.parametrize("replay", ["experiments", "trace"])
    @pytest.mark.parametrize(
        "backend", [HashBackend, PoissonByteBackend, PrimeGapBackend, HybridBackend]
    )
    def test_rate_replay_counts_each_decision_once(self, backend, replay):
        """After a rate replay, ``realized_rates()`` is the sampled
        fraction of the logged objects on every backend: the replay
        asks the backend once per distinct object, so a sampled object
        is not counted twice.  The expected fraction is a fresh policy's
        decisions at the same rate.  Two classes, so the hybrid routes
        one to each sub-backend and counts both."""
        from repro.analysis.experiments import tcm_at_rate
        from repro.analysis.trace import ProfileTrace
        from repro.core.oal import OALBatch

        def make():
            return PrimeGapBackend() if backend is PrimeGapBackend else backend(seed=9)

        gos = gos_with_classes()
        gos.registry.define("Big", 512)
        objs = [gos.allocate("Body", home_node=0) for _ in range(2000)]
        objs += [gos.allocate("Big", home_node=0) for _ in range(2000)]
        batch = OALBatch(thread_id=0, interval_id=0)
        for o in objs:
            batch.add(o.obj_id, o.jclass.instance_size, o.jclass.class_id)
        replayed = make()
        if replay == "experiments":
            tcm_at_rate([batch], gos, 1, 4, backend=replayed)
        else:
            ProfileTrace.capture(gos, [batch], 1).tcm_at_rate(4, backend=replayed)
        probe = make_policy(make(), gos, rate=4).backend
        expected = {}
        for cid in (objs[0].jclass.class_id, objs[-1].jclass.class_id):
            members = [o for o in objs if o.jclass.class_id == cid]
            sampled = sum(probe.decide(o)[0] for o in members)
            assert 0 < sampled < len(members)
            expected[cid] = sampled / len(members)
        # The trace replay renumbers classes in its own registry (in the
        # same order), so compare the per-class fractions in class order.
        assert list(replayed.realized_rates().values()) == list(expected.values())


@pytest.mark.parametrize("backend", ["prime_gap", "hash", "poisson", "hybrid"])
def test_live_run_counts_each_decision_once(backend):
    """After a live profiled run — correlation and footprint —
    ``realized_rates()`` is the sampled fraction of the decisions the
    policy handed out through ``decision`` / ``decide_batch``: every
    backend counts each decision it makes, once."""
    from repro.core.profiler import ProfilerSuite
    from repro.runtime.djvm import DJVM
    from repro.workloads.water_spatial import WaterSpatialWorkload

    djvm = DJVM(4)
    workload = WaterSpatialWorkload(n_molecules=192, rounds=4, n_threads=4, seed=1)
    workload.build(djvm)
    suite = ProfilerSuite(djvm, correlation=True, footprint=True, sampling_backend=backend)
    suite.set_rate_all(4)
    policy = suite.policy
    tally: dict[int, list[int]] = {}

    def note(obj, dec):
        tally.setdefault(obj.jclass.class_id, [0, 0])[0 if dec[0] else 1] += 1

    decision, decide_batch = policy.decision, policy.decide_batch

    def tallied_decision(obj):
        dec = decision(obj)
        note(obj, dec)
        return dec

    def tallied_batch(objs, gos=None):
        objs = list(objs) if gos is None else [gos.get(i) for i in objs]
        decs = decide_batch(objs)
        for obj, dec in zip(objs, decs):
            note(obj, dec)
        return decs

    policy.decision, policy.decide_batch = tallied_decision, tallied_batch
    djvm.run(workload.programs())
    assert suite.footprinter.interval_footprints
    expected = {cid: s / (s + k) for cid, (s, k) in sorted(tally.items())}
    assert len(expected) > 1 and any(0 < r < 1 for r in expected.values())
    assert policy.backend.realized_rates() == expected


@pytest.mark.parametrize("backend", ["prime_gap", "hash", "poisson", "hybrid"])
def test_the_footprinter_adds_no_decisions(backend):
    """The correlation profiler and the footprinter share one decision
    per first touch, so attaching the footprinter leaves the backend's
    (samples, skips) totals as they are — under a stateless backend too,
    which counts every evaluation.  ``realized_rates()`` cannot show a
    double count: it doubles both sides of its ratio."""
    from repro.core.profiler import ProfilerSuite
    from repro.runtime.djvm import DJVM
    from repro.workloads.water_spatial import WaterSpatialWorkload

    def totals(footprint: bool) -> tuple[int, int]:
        djvm = DJVM(4)
        workload = WaterSpatialWorkload(n_molecules=192, rounds=4, n_threads=4, seed=1)
        workload.build(djvm)
        suite = ProfilerSuite(
            djvm, correlation=True, footprint=footprint, sampling_backend=backend
        )
        suite.set_rate_all(4)
        djvm.run(workload.programs())
        return suite.policy.backend.totals()

    alone = totals(False)
    assert alone[0] > 0 and alone[1] > 0
    assert totals(True) == alone


# ---------------------------------------------------------------------------
# the one cache: first-touch answers, kept for one rate generation
# ---------------------------------------------------------------------------

_CLASS_SPECS = st.lists(
    st.one_of(
        st.tuples(st.just(False), st.sampled_from([8, 48, 96, 512, 5000])),
        st.tuples(st.just(True), st.sampled_from([4, 8])),
    ),
    min_size=1,
    max_size=3,
)
_RATES = st.sampled_from([1, 2, 4, 16, "full"])


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_first_touches_is_the_one_cache(backend, data):
    """Over generated classes, objects and a sequence of first-touch
    batches and rate changes (a rate change to one class between
    batches that touch another class's objects again), each batch is
    handed to two first-touch entries with the same ids list, and:

    * the answer equals a fresh policy's ``decision`` for each id at
      the rates then in force;
    * the backend has counted exactly one decision per distinct
      (object, rate generation) pair whose class was off gap 1."""
    gos = GlobalObjectSpace()
    classes = []
    for k, (is_array, size) in enumerate(data.draw(_CLASS_SPECS, label="classes")):
        if is_array:
            classes.append(gos.registry.define(f"A{k}", is_array=True, element_size=size))
        else:
            classes.append(gos.registry.define(f"S{k}", size))
    n_objects = data.draw(st.integers(1, 90), label="n_objects")
    for _ in range(n_objects):
        jclass = classes[data.draw(st.integers(0, len(classes) - 1))]
        length = data.draw(st.integers(1, 300)) if jclass.is_array else 0
        gos.allocate(jclass, home_node=0, length=length)
    objects = list(gos)
    policy = SamplingPolicy(backend=backend)
    rates = {jclass.class_id: "full" for jclass in classes}
    decided: set[tuple[int, int]] = set()
    steps = st.one_of(
        st.tuples(st.just("rate"), st.integers(0, len(classes) - 1), _RATES),
        st.tuples(
            st.just("touch"),
            st.lists(st.integers(0, n_objects - 1), unique=True, min_size=1),
        ),
    )
    for step in data.draw(st.lists(steps, min_size=1, max_size=12), label="steps"):
        if step[0] == "rate":
            jclass = classes[step[1]]
            policy.set_rate(jclass, step[2])
            rates[jclass.class_id] = step[2]
            continue
        ids = step[1]
        answer = policy.first_touches(ids, gos)
        assert policy.first_touches(ids, gos) == answer
        fresh = SamplingPolicy(backend=backend)
        for jclass in classes:
            fresh.set_rate(jclass, rates[jclass.class_id])
        expected = [fresh.decision(objects[i]) for i in ids]
        sampled, scaled = answer
        assert (sampled or [True] * len(ids)) == [d[0] for d in expected]
        assert scaled == [d[2] for d in expected]
        decided.update(
            (i, policy.rate_changes) for i in ids if policy.gap(objects[i].jclass) != 1
        )
    assert sum(policy.backend.totals()) == len(decided)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_rate_change_starts_a_new_generation_for_every_class(backend):
    """A rate change to one class is a new rate generation: objects of
    another class, unchanged, are decided (and counted) again at their
    next first touch, and agree with their earlier answer."""
    gos = GlobalObjectSpace()
    body = gos.registry.define("Body", 96)
    row = gos.registry.define("double[]", is_array=True, element_size=8)
    policy = make_policy(backend, gos, rate=4)
    ids = [gos.allocate(body, home_node=0).obj_id for _ in range(40)]
    first = policy.first_touches(list(ids), gos)
    assert sum(policy.backend.totals()) == 40
    assert policy.first_touches(list(ids), gos) == first
    assert sum(policy.backend.totals()) == 40
    policy.set_rate(row, 16)
    assert policy.first_touches(list(ids), gos) == first
    assert sum(policy.backend.totals()) == 80
