"""Class-level adaptive object sampling (paper Section II.B).

Every class carries its own *sampling gap*: an object is sampled iff its
per-class sequence number is divisible by the gap.  Nominal gaps are
powers of two; the **real** gap is the nearest prime (Section II.B.1) so
cyclic allocation patterns cannot alias with the gap.  Rates are
expressed page-relative as ``nX`` — "sample n objects per 4 KB page" —
so for a class of size ``s`` the nominal gap at rate ``nX`` is
``page_size / (s * n)``; classes at least a page large are therefore
always fully sampled at any rate (the reason SOR behaves as if fully
sampled throughout the paper's tables).

Sampled contributions are scaled by the gap (a Horvitz-Thompson
estimator): each sampled object stands for ``gap`` allocated peers, so
TCMs estimated at any rate are directly comparable with the
full-sampling reference — which is what the paper's accuracy formulas
(1)/(2) compare.

Sampling backends
-----------------

The *decision* — given an object and the class's current gap, is it
sampled, how many bytes are logged, and what Horvitz-Thompson weight do
they carry — is pluggable through :class:`SamplingBackend`: each backend is one
uncounted kernel, a pure function of the object's identity (class, seq
or id, length) and its class's current gap.  The
:class:`SamplingPolicy` keeps owning the per-class *configuration*
(rate ladder -> nominal gap -> realized prime gap, min-gap clamps,
epochs) so every backend answers the same page-relative rate semantics;
backends differ only in how they select objects at that rate:

* :class:`PrimeGapBackend` (default) — the paper's scheme: sequence
  divisibility.  Needs the per-class allocation sequence counter and a
  cluster resampling pass on every rate change (charged in simulated
  time by the access profiler).
* :class:`HashBackend` — a pure function of the object id (xorshift
  mix), matching the prime-gap inclusion probability per class with no
  mutable per-class decision state and no resampling passes.  Rate
  changes are a threshold update.
* :class:`PoissonByteBackend` — a Poisson process over the allocation
  byte stream (rate ``λ = 1 / (gap · unit_bytes)``): an object is
  sampled iff at least one arrival lands in its byte extent, so
  inter-sample byte distances are Exp(λ) (discretized at object
  granularity).  Rate changes are a λ update.
* :class:`HybridBackend` — Poisson for small scalars, hash for arrays
  and large objects (the Continuous-Memory-Profiler HYBRID shape).

Stateless selections are deterministic across runs and processes: the
per-backend key is derived from :func:`repro.util.rng.seeded_rng`.
They carry a known failure mode (the snippet's PAGE_HASH dead zone):
a hash over immutable identities excludes a fixed subset of objects
forever, so a class whose live population times its inclusion
probability is below ~1 can be *entirely* unsampled.
:meth:`StatelessBackend.dead_zone_report` flags such classes.

Every decision reads the global object space's columns (class, seq,
length) by object id: a backend's kernel takes ``(gos, obj_id, st)``.
The profilers decide at interval first touches through
:meth:`SamplingPolicy.first_touches`: one answer per batch of ids,
shared by every first-touch entry handed that batch, with the backend
asked through :meth:`SamplingPolicy.decide_batch` only for classes off
gap 1, and at most once per object and rate generation.  That answer is
the one cache of decisions; a backend counts every decision it is asked
for (``decide`` / ``decide_batch``), and the policy's views
(``is_sampled`` / ``logged_bytes`` / ``scaled_bytes``) count none.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import is_, itemgetter, ne, not_

import numpy as np

from repro.core.array_sampling import amortized_elements, sampled_element_count
from repro.heap.jclass import JClass
from repro.heap.objects import HeapObject
from repro.util.primes import prime_gap_for_nominal
from repro.util.rng import seeded_rng
from repro.util.validation import check_positive

#: rate sentinel for full sampling.
FULL = "full"

_M64 = (1 << 64) - 1
_ONE64 = 1 << 64
#: odd multiplier decorrelating consecutive object ids before mixing.
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """The splitmix64 finalizer: a xorshift-multiply bijection on 64-bit
    ints.  Pure integer arithmetic — identical on every host/process."""
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _mix64_array(ids: np.ndarray, key: int) -> np.ndarray:
    """Vectorized :func:`_mix64` over ``(ids * GOLDEN) ^ key``; uint64
    wraparound matches the scalar mod-2^64 arithmetic exactly."""
    x = (ids * np.uint64(_GOLDEN)) ^ np.uint64(key)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class _Interned(dict):
    """Maps each int to the first equal int object it was given."""

    def __missing__(self, key: int) -> int:
        self[key] = key
        return key


@dataclass
class ClassSamplingState:
    """Per-class sampling metadata (the paper stores this "as close to
    subclasses as possible")."""

    jclass: JClass
    nominal_gap: int = 1
    real_gap: int = 1
    #: bumped on every gap change.
    epoch: int = 0
    #: lower bound on the gap (used by sticky-set footprinting).
    min_gap: int = 1
    history: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# backend protocol
# ---------------------------------------------------------------------------


class SamplingBackend:
    """One sampling-decision scheme, pluggable under a SamplingPolicy.

    A backend implements one method, :meth:`_kernel`: the uncounted
    ``(sampled, logged_bytes, scaled_bytes)`` of one object of a global
    object space under its class's current gap, a pure function of the
    object's identity read off the space's columns.  :meth:`_kernels` is
    the same over a list of ids (a loop, or a numpy lane where a backend
    has one).  :meth:`decide` and :meth:`decide_batch` are those plus
    the backend's per-class sample/skip counters, which count every
    decision they make; those feed the obs registry's
    ``sampling_decisions_total`` / ``sampling_realized_rate`` families.
    ``needs_resample_pass`` says whether a gap change requires the
    cluster-wide object re-tagging pass the paper charges (stateless
    backends select from immutable identity and skip it).
    """

    name = "abstract"
    needs_resample_pass = False

    def __init__(self) -> None:
        self.policy: SamplingPolicy | None = None
        #: class_id -> decisions that selected the object.
        self.sample_counts: dict[int, int] = {}
        #: class_id -> decisions that skipped the object.
        self.skip_counts: dict[int, int] = {}

    def bind(self, policy: "SamplingPolicy") -> "SamplingBackend":
        """Attach to the policy owning the per-class gap configuration."""
        self.policy = policy
        return self

    # -- protocol ------------------------------------------------------

    def _kernel(self, gos, obj_id: int, st: ClassSamplingState) -> tuple[bool, int, int]:
        """``(sampled, logged_bytes, scaled_bytes)`` for object
        ``obj_id`` of ``gos``, of the class whose state is ``st``;
        counts nothing."""
        raise NotImplementedError

    def decide(self, obj: HeapObject) -> tuple[bool, int, int]:
        """:meth:`_kernel` for one object, counted."""
        st = self.policy.state(obj.jclass)
        result = self._kernel(obj.space, obj.obj_id, st)
        self._count(st.jclass.class_id, result[0])
        return result

    def decide_batch(self, gos, ids) -> list[tuple[bool, int, int]]:
        """:meth:`decide` over the objects ``ids`` (a list) of ``gos``,
        in input order: :meth:`_kernels`, then each class's samples and
        skips counted at once."""
        out = self._kernels(gos, ids)
        cids = list(map(gos.cls.__getitem__, ids))
        total = Counter(cids)
        hits = Counter(compress(cids, map(itemgetter(0), out)))
        for cid in sorted(total):
            if hits[cid]:
                self.sample_counts[cid] = self.sample_counts.get(cid, 0) + hits[cid]
            if hits[cid] < total[cid]:
                self.skip_counts[cid] = self.skip_counts.get(cid, 0) + total[cid] - hits[cid]
        return out

    def _kernels(self, gos, ids) -> list[tuple[bool, int, int]]:
        """:meth:`_kernel` over the objects ``ids`` of ``gos``; counts
        nothing.  Backends override when a batch can be computed cheaper
        than a loop."""
        states, state, by_id = self.policy._states, self.policy.state, gos.registry.by_id
        kernel, cls = self._kernel, gos.cls
        return [
            kernel(gos, obj_id, states.get(cid) or state(by_id(cid)))
            for obj_id, cid in zip(ids, map(cls.__getitem__, ids))
        ]

    def snapshot(self) -> dict:
        """Deterministically ordered digest of the backend's view: the
        per-class realized parameters plus the decision counters."""
        policy = self.policy
        stats = self.class_stats()
        classes = {}
        for cid in sorted(policy._states):
            st = policy._states[cid]
            samples, skips = stats.get(cid, (0, 0))
            classes[st.jclass.name] = {
                "gap": st.real_gap,
                "epoch": st.epoch,
                "samples": samples,
                "skips": skips,
            }
        return {"backend": self.name, "classes": classes}

    # -- shared helpers ------------------------------------------------

    def _count(self, class_id: int, sampled: bool) -> None:
        counts = self.sample_counts if sampled else self.skip_counts
        counts[class_id] = counts.get(class_id, 0) + 1

    def class_stats(self) -> dict[int, tuple[int, int]]:
        """class_id -> (samples, skips) over counted decisions."""
        out: dict[int, tuple[int, int]] = {}
        for cid in sorted(set(self.sample_counts) | set(self.skip_counts)):
            out[cid] = (self.sample_counts.get(cid, 0), self.skip_counts.get(cid, 0))
        return out

    def totals(self) -> tuple[int, int]:
        """(samples, skips) summed over every class."""
        stats = self.class_stats()
        return (
            sum(s for s, _ in stats.values()),  # simlint: disable=SIM003 (commutative sum; class_stats() is sorted-key anyway)
            sum(k for _, k in stats.values()),  # simlint: disable=SIM003 (commutative sum; class_stats() is sorted-key anyway)
        )

    def realized_rates(self) -> dict[int, float]:
        """class_id -> sampled fraction among counted decisions."""
        return {  # simlint: disable=SIM003 (class_stats() builds its dict in sorted-class_id order)
            cid: s / (s + k)
            for cid, (s, k) in self.class_stats().items()
            if s + k > 0
        }

    def expected_gap(self, st: ClassSamplingState) -> int:
        """Mean object spacing between samples of the class (the
        landmark-guard tolerance unit in sticky-set resolution)."""
        return st.real_gap


class PrimeGapBackend(SamplingBackend):
    """The paper's per-class prime-gap scheme (the default): sequence
    divisibility for scalars, any-element divisibility for arrays."""

    name = "prime_gap"
    needs_resample_pass = True

    def _kernel(self, gos, obj_id: int, st: ClassSamplingState) -> tuple[bool, int, int]:
        gap = st.real_gap
        jclass = st.jclass
        if jclass.is_array:
            length = gos.length[obj_id]
            if gap == 1:
                sampled = True
            else:
                sampled = sampled_element_count(gos.seq[obj_id], length, gap) > 0
            logged = amortized_elements(length, gap) * jclass.element_size
        else:
            sampled = True if gap == 1 else gos.seq[obj_id] % gap == 0
            logged = jclass.instance_size
        return (sampled, logged, logged * gap)


class StatelessBackend(SamplingBackend):
    """Base for backends whose decision is a pure function of the
    object's immutable identity and the class's current gap — no
    per-object tags, no cluster resampling passes.  The selection
    key is derived from :func:`repro.util.rng.seeded_rng`, so runs and
    processes agree on which objects are selected."""

    needs_resample_pass = False

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = int(seed)
        self._key = int(
            seeded_rng(self.seed, "sampling", self.name).integers(
                0, _ONE64, dtype=np.uint64
            )
        )

    def probability(self, obj: HeapObject) -> float:
        """The object's inclusion probability under the current gap."""
        raise NotImplementedError

    def _kernel(self, gos, obj_id: int, st: ClassSamplingState) -> tuple[bool, int, int]:
        threshold, logged, scaled = self._terms(st, gos.length[obj_id])
        if threshold is None:
            return (True, logged, scaled)
        return (_mix64((obj_id * _GOLDEN) ^ self._key) < threshold, logged, scaled)

    def _terms(self, st: ClassSamplingState, length: int) -> tuple[int | None, int, int]:
        """What a decision needs besides the object's id, a function of
        its class state and array length: the threshold its id's mix
        must fall under (None at gap 1: always sampled; at 2^64 or more
        every id falls under it), logged and scaled bytes."""
        raise NotImplementedError

    def _kernels(self, gos, ids) -> list[tuple[bool, int, int]]:
        """The batch lane: :meth:`_terms` once per distinct (class,
        length) of the batch, in Python, then the mix and the threshold
        comparison of every id in one uint64 numpy pass — bit-identical
        to the scalar kernel."""
        if len(ids) < 64:
            return super()._kernels(gos, ids)
        idx = np.asarray(ids, dtype=np.intp)
        cids = gos.cls_np[idx]
        lengths = gos.length_np[idx]
        _keys, first, inv = np.unique(
            cids * (int(lengths.max()) + 1) + lengths, return_index=True, return_inverse=True
        )
        states, state, by_id = self.policy._states, self.policy.state, gos.registry.by_id
        terms = [
            self._terms(states.get(cid) or state(by_id(cid)), length)
            for cid, length in zip(cids[first].tolist(), lengths[first].tolist())
        ]
        # A threshold of 2^64 or more (or gap 1) samples every id.
        always = np.array([t is None or t >= _ONE64 for t, _, _ in terms])[inv]
        threshold = np.array(
            [0 if t is None or t >= _ONE64 else t for t, _, _ in terms], dtype=np.uint64
        )[inv]
        sampled = always | (_mix64_array(idx.astype(np.uint64), self._key) < threshold)
        logged = np.array([t[1] for t in terms], dtype=np.int64)[inv]
        scaled = np.array([t[2] for t in terms], dtype=np.int64)[inv]
        return list(zip(sampled.tolist(), logged.tolist(), scaled.tolist()))

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["seed"] = self.seed
        snap["key"] = self._key
        return snap

    def dead_zone_report(self, gos, *, min_expected: float = 2.0) -> list[dict]:
        """Flag classes whose live working set is below the backend's
        resolvable population — the snippet's PAGE_HASH failure mode.

        A stateless selection over immutable identities excludes a fixed
        subset of objects for the lifetime of the run; when a class's
        expected sample count (``Σ inclusion probability`` over its live
        objects) falls under ``min_expected``, or no live object hashes
        into the selection at all, the class's TCM contribution is
        structurally biased (possibly zero) rather than noisy.  Returns
        one record per flagged class, definition order.  Probing counts
        no decision.
        """
        out: list[dict] = []
        for jclass in gos.registry:
            objs = gos.objects_of_class(jclass)
            if not objs:
                continue
            st = self.policy.state(jclass)
            gap = st.real_gap
            if gap == 1:
                continue
            expected = 0.0
            actual = 0
            for obj in objs:
                expected += self.probability(obj)
                if self._kernel(gos, obj.obj_id, st)[0]:
                    actual += 1
            if expected < min_expected or actual == 0:
                out.append(
                    {
                        "class": jclass.name,
                        "population": len(objs),
                        "gap": gap,
                        "expected_samples": round(expected, 6),
                        "actual_samples": actual,
                    }
                )
        return out


class HashBackend(StatelessBackend):
    """Stateless object-id hash selection (the snippet's STATELESS_HASH).

    An object is selected iff a xorshift mix of its id falls under a
    threshold realizing the class's prime-gap inclusion probability:
    ``1/gap`` for scalars, ``min(1, length/gap)`` for arrays (matching
    the element-wise scheme's any-element-sampled probability), with the
    same amortized logged bytes and Horvitz-Thompson weights as the
    default backend.  Rate changes are a pure threshold update — no
    per-class decision state, no resampling pass.  The test
    ``h · gap < L · 2^64`` (``L`` = 1 for scalars, the length for
    arrays) is the exact integer threshold ``⌈L · 2^64 / gap⌉`` on the
    mix ``h``, so the stateless kernel and its numpy lane agree
    bit-for-bit.
    """

    name = "hash"

    def _terms(self, st: ClassSamplingState, length: int) -> tuple[int | None, int, int]:
        jclass = st.jclass
        gap = st.real_gap
        if jclass.is_array:
            logged = amortized_elements(length, gap) * jclass.element_size
        else:
            length, logged = 1, jclass.instance_size
        if gap == 1:
            return (None, logged, logged)
        # h·gap < L·2^64 ⟺ h < ⌈L·2^64 / gap⌉ for an integer h.
        return (-(-(length << 64) // gap), logged, logged * gap)

    def probability(self, obj: HeapObject) -> float:
        gap = self.policy.state(obj.jclass).real_gap
        if gap == 1:
            return 1.0
        if obj.is_array:
            return min(1.0, obj.length / gap)
        return 1.0 / gap


class PoissonByteBackend(StatelessBackend):
    """Stateless Poisson sampling over the allocation byte stream (the
    snippet's POISSON_HEADER).

    A Poisson process of rate ``λ = 1 / (gap · unit_bytes)`` runs over
    allocated bytes; an object is sampled iff at least one arrival lands
    in its extent, i.e. with probability ``1 − exp(−size·λ)``, realized
    as a deterministic per-object uniform draw (seeded xorshift mix of
    the object id).  Inter-sample byte distances are therefore Exp(λ)
    up to object-granularity discretization.  The Horvitz-Thompson
    weight is ``size / p`` — unbiased for any object size.  Rate changes
    are a pure λ update.
    """

    name = "poisson"

    def _terms(self, st: ClassSamplingState, length: int) -> tuple[int | None, int, int]:
        jclass = st.jclass
        gap = st.real_gap
        if jclass.is_array:
            size = length * jclass.element_size
            unit = jclass.element_size
            logged = amortized_elements(length, gap) * unit
        else:
            size = jclass.instance_size
            unit = jclass.instance_size
            logged = jclass.instance_size
        if gap == 1:
            return (None, logged, logged)
        # size and unit are positive: JClass checks a class's sizes, the
        # GOS and ProfileTrace an array's length.
        p = -math.expm1(-size / (gap * unit))
        return (int(p * 18446744073709551616.0), logged, int(round(size / p)))  # p * 2^64

    def probability(self, obj: HeapObject) -> float:
        jclass = obj.jclass
        gap = self.policy.state(jclass).real_gap
        if gap == 1:
            return 1.0
        if obj.is_array:
            size, unit = obj.length * jclass.element_size, jclass.element_size
        else:
            size = unit = jclass.instance_size
        return -math.expm1(-size / (gap * unit))

    def expected_gap(self, st: ClassSamplingState) -> int:
        gap = st.real_gap
        if gap == 1:
            return 1
        return max(1, round(-1.0 / math.expm1(-1.0 / gap)))


class HybridBackend(SamplingBackend):
    """Poisson for small scalars, hash for arrays and large objects (the
    snippet's HYBRID): header-byte Poisson keeps small-object estimates
    low-variance while big, coarse-grained objects take the cheaper
    hash test.  ``split_bytes`` is the routing boundary for scalars.
    The sub-backends only compute; the hybrid counts its decisions."""

    name = "hybrid"
    needs_resample_pass = False

    def __init__(self, seed: int = 0, *, split_bytes: int = 256) -> None:
        super().__init__()
        check_positive(split_bytes, "split_bytes")
        self.seed = int(seed)
        self.split_bytes = int(split_bytes)
        self.poisson = PoissonByteBackend(seed)
        self.hash = HashBackend(seed)

    def bind(self, policy: "SamplingPolicy") -> "HybridBackend":
        super().bind(policy)
        self.poisson.bind(policy)
        self.hash.bind(policy)
        return self

    def route(self, obj: HeapObject) -> StatelessBackend:
        """Which sub-backend decides this object."""
        return self._route(obj.jclass)

    def _route(self, jclass: JClass) -> StatelessBackend:
        if jclass.is_array or jclass.instance_size >= self.split_bytes:
            return self.hash
        return self.poisson

    def _kernel(self, gos, obj_id: int, st: ClassSamplingState) -> tuple[bool, int, int]:
        return self._route(st.jclass)._kernel(gos, obj_id, st)

    def _kernels(self, gos, ids) -> list[tuple[bool, int, int]]:
        """Each sub-backend's batch lane over the ids it routes, merged
        back in input order."""
        cls, by_id = gos.cls, gos.registry.by_id
        to_hash = {
            cid: self._route(by_id(cid)) is self.hash for cid in sorted(set(map(cls.__getitem__, ids)))
        }
        hashed = list(map(to_hash.__getitem__, map(cls.__getitem__, ids)))
        by_hash = iter(self.hash._kernels(gos, list(compress(ids, hashed))))
        by_poisson = iter(self.poisson._kernels(gos, list(compress(ids, map(not_, hashed)))))
        return [next(by_hash) if h else next(by_poisson) for h in hashed]

    def probability(self, obj: HeapObject) -> float:
        return self.route(obj).probability(obj)

    def dead_zone_report(self, gos, *, min_expected: float = 2.0):
        return StatelessBackend.dead_zone_report(self, gos, min_expected=min_expected)

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["seed"] = self.seed
        snap["split_bytes"] = self.split_bytes
        return snap


#: backend name -> constructor (the ``ProfilerSuite(sampling_backend="...")`` registry).
BACKENDS: dict[str, type[SamplingBackend]] = {
    PrimeGapBackend.name: PrimeGapBackend,
    PoissonByteBackend.name: PoissonByteBackend,
    HashBackend.name: HashBackend,
    HybridBackend.name: HybridBackend,
}


def resolve_backend(spec) -> SamplingBackend:
    """Normalize a backend spec — None (default), a registry name, or a
    ready instance — into an unbound backend instance."""
    if spec is None:
        return PrimeGapBackend()
    if isinstance(spec, SamplingBackend):
        return spec
    if isinstance(spec, str):
        ctor = BACKENDS.get(spec)
        if ctor is None:
            raise ValueError(
                f"unknown sampling backend {spec!r}; known: {sorted(BACKENDS)}"
            )
        return ctor()
    raise TypeError(f"sampling backend must be None, a name or a SamplingBackend, got {spec!r}")


class SamplingPolicy:
    """Cluster-wide sampling configuration: one gap per class, plus the
    pluggable decision backend that realizes it."""

    def __init__(
        self,
        page_size: int = 4096,
        *,
        use_prime_gaps: bool = True,
        backend=None,
    ) -> None:
        check_positive(page_size, "page_size")
        self.page_size = int(page_size)
        #: disable to ablate the prime-gap design choice.
        self.use_prime_gaps = use_prime_gaps
        self._states: dict[int, ClassSamplingState] = {}
        #: total gap-change events, the policy's rate generation (each
        #: triggers cluster-wide resampling under the prime-gap backend;
        #: stateless backends treat it as a λ / threshold update).
        self.rate_changes = 0
        #: class_id -> current real gap; a precomputed table the hot
        #: profiling path reads instead of re-deriving gaps per access.
        self.gap_table: dict[int, int] = {}
        #: how many classes have a real gap above 1; zero means every
        #: class is fully sampled (the profiler's column path).
        self.off_gap_one = 0
        #: the pluggable decision scheme.
        self.backend: SamplingBackend = resolve_backend(backend).bind(self)
        #: (ids, rate_changes, answer) of the last first-touch batch.
        self._first_touch = None
        #: obj_id -> first-touch selection flag / scaled bytes, valid
        #: while ``(rate_changes, space)`` is ``_known_gen``.
        self._known_sampled: dict[int, bool] = {}
        self._known_scaled: dict[int, int] = {}
        self._known_gen: tuple | None = None
        #: every gap-1 size handed out, keyed by itself: answers carry
        #: these int objects, so a kept log holds one per distinct size
        #: rather than one per entry.
        self._sizes = _Interned()

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    def state(self, jclass: JClass) -> ClassSamplingState:
        """Get (or lazily create) the class's sampling state."""
        st = self._states.get(jclass.class_id)
        if st is None:
            st = ClassSamplingState(jclass=jclass)
            self._states[jclass.class_id] = st
            self.gap_table[jclass.class_id] = st.real_gap
        return st

    def gap(self, jclass: JClass) -> int:
        """Current real (prime) sampling gap of a class."""
        return self.state(jclass).real_gap

    def expected_gap(self, jclass: JClass) -> int:
        """Mean object spacing between samples of a class under the
        active backend — the prime gap for divisibility/hash selection,
        the rounded inverse inclusion probability for Poisson."""
        return self.backend.expected_gap(self.state(jclass))

    def _sampling_unit_size(self, jclass: JClass) -> int:
        """Byte size of the sampling unit: the element for array classes
        (elements carry the sequence numbers), the instance otherwise."""
        return jclass.element_size if jclass.is_array else jclass.instance_size

    def nominal_gap_for_rate(self, jclass: JClass, rate: float | str) -> int:
        """Nominal gap realizing page-relative rate ``rate`` (``nX`` with
        ``n = rate``, or the string ``"full"``)."""
        if rate == FULL:
            return 1
        check_positive(rate, "sampling rate")
        unit = self._sampling_unit_size(jclass)
        nominal = int(self.page_size // (unit * rate))
        return max(nominal, 1)

    def set_rate(self, jclass: JClass, rate: float | str) -> bool:
        """Set a class's gap from a page-relative rate; returns True when
        the real gap changed (a cluster resampling pass is then due
        under the prime-gap backend; stateless backends just see a new
        λ / threshold through the gap)."""
        return self.set_nominal_gap(jclass, self.nominal_gap_for_rate(jclass, rate))

    def set_nominal_gap(self, jclass: JClass, nominal: int) -> bool:
        """Set a nominal gap directly; returns True if the real gap changed."""
        return self._realize_gap(self.state(jclass), nominal)

    def _realize_gap(self, st: ClassSamplingState, nominal: int) -> bool:
        """Clamp ``nominal`` to the class's min gap and realize it — the
        nearest prime normally, the nominal itself in the prime-gap
        ablation — updating epoch, history, the gap table, the count of
        classes off gap 1 and the policy-wide change counter on an actual
        change."""
        check_positive(nominal, "nominal gap")
        nominal = max(nominal, st.min_gap)
        real = prime_gap_for_nominal(nominal) if self.use_prime_gaps else nominal
        changed = real != st.real_gap
        st.nominal_gap = nominal
        if changed:
            self.off_gap_one += (real != 1) - (st.real_gap != 1)
            st.real_gap = real
            st.epoch += 1
            st.history.append(real)
            self.gap_table[st.jclass.class_id] = real
            self.rate_changes += 1
        return changed

    def set_rate_all(self, classes, rate: float | str) -> list[JClass]:
        """Apply one rate to many classes; returns classes whose gap changed."""
        changed = []
        for jclass in classes:
            if self.set_rate(jclass, rate):
                changed.append(jclass)
        return changed

    def set_min_gap(self, jclass: JClass, min_gap: int) -> None:
        """Lower-bound a class's gap (sticky-set footprinting's guard
        against runaway repeated-tracking cost).  Under stateless
        backends the clamp caps the inclusion probability at
        ``1/min_gap`` through the same gap realization."""
        check_positive(min_gap, "min_gap")
        st = self.state(jclass)
        st.min_gap = int(min_gap)
        if st.real_gap < st.min_gap:
            self.set_nominal_gap(jclass, st.min_gap)

    # ------------------------------------------------------------------
    # sampling decisions (delegated to the backend)
    # ------------------------------------------------------------------

    def decision(self, obj: HeapObject) -> tuple[bool, int, int]:
        """The full sampling decision for one object:
        ``(sampled, logged_bytes, scaled_bytes)``.

        Decisions are pure functions of the object's immutable identity
        (class, seq/id, length) and the class's current gap, computed by
        the active :class:`SamplingBackend`, which counts each one.
        """
        return self.backend.decide(obj)

    def decide_batch(self, objs, gos=None) -> list[tuple[bool, int, int]]:
        """Vectorized :meth:`decision` over an iterable of objects, in
        input order (the backend's batch lane); with ``gos``, ``objs``
        are ids of its objects."""
        if gos is None:
            objs = list(objs)
            if not objs:
                return []
            gos = objs[0].space
            objs = [obj.obj_id for obj in objs]
        return self.backend.decide_batch(gos, objs)

    # The three views below call the backend's kernel and count
    # nothing: only decision() and decide_batch() count, so
    # realized_rates() is the sampled fraction of what the profilers
    # decided.

    def is_sampled(self, obj: HeapObject) -> bool:
        """Is this object currently sampled?

        Scalars: sequence number divisible by the class gap.  Arrays:
        at least one element logically sampled (Fig. 3b).  Other
        backends substitute their own selection at the same rate.
        """
        return self.backend._kernel(obj.space, obj.obj_id, self.state(obj.jclass))[0]

    def logged_bytes(self, obj: HeapObject) -> int:
        """Bytes recorded in the OAL for one sampled object: the full
        instance size for scalars, the amortized sample size for arrays."""
        return self.backend._kernel(obj.space, obj.obj_id, self.state(obj.jclass))[1]

    def scaled_bytes(self, obj: HeapObject) -> int:
        """Horvitz-Thompson estimate this sample contributes: logged
        bytes times the gap (each sample stands for ``gap`` units), or
        the backend's equivalent inverse-probability weight."""
        return self.backend._kernel(obj.space, obj.obj_id, self.state(obj.jclass))[2]

    def first_touches(self, ids, gos) -> tuple[list[bool] | None, list[int]]:
        """The sampling decision of one batch of interval first touches,
        made once for every first-touch entry that asks: ``(sampled,
        scaled)``, parallel to ``ids`` — the selection flags (None: all
        sampled) and each id's Horvitz-Thompson scaled bytes.
        ``ids`` are object ids of the global object space ``gos``.

        An id of a class at gap 1 is sampled at its own size (its
        ``payload`` column) and is no backend decision; the rest go
        through :meth:`decide_batch`.
        Both routes call the first-touch entries of one access or run
        back to back with the same ``ids`` list, and rates change only
        at an interval close, so a second call with that list and no
        rate change since returns the first answer.  The answers are
        also kept by id until the next rate change, so an object first
        touched again in a later interval is read back at C speed: each
        object is decided, and counted, at most once per rate
        generation, under every backend."""
        last = self._first_touch
        if last is not None and last[0] is ids and last[1] == self.rate_changes:
            return last[2]
        if not self.off_gap_one:
            answer = None, self._gap_one_bytes(ids, gos)
        else:
            if self._known_gen != (self.rate_changes, gos):
                self._known_sampled, self._known_scaled = {}, {}
                self._known_gen = (self.rate_changes, gos)
            known_sampled = self._known_sampled
            sampled = list(map(known_sampled.get, ids))
            if None in sampled:
                miss = list(compress(ids, map(is_, sampled, repeat(None))))
                got, scaled = self._decide(miss, gos)
                known_sampled.update(zip(miss, repeat(True) if got is None else got))
                self._known_scaled.update(zip(miss, scaled))
                sampled = list(map(known_sampled.__getitem__, ids))
            answer = sampled, list(map(self._known_scaled.__getitem__, ids))
        self._first_touch = (ids, self.rate_changes, answer)
        return answer

    def _decide(self, ids, gos) -> tuple[list[bool] | None, list[int]]:
        """:meth:`first_touches`' answer computed: gap-1 ids from the
        space's columns, the rest through one :meth:`decide_batch`."""
        scaled = self._gap_one_bytes(ids, gos)
        gaps = map(self.gap_table.get, map(gos.cls.__getitem__, ids), repeat(1))
        off = list(map(ne, gaps, repeat(1)))
        if not any(off):
            return None, scaled
        sampled = [True] * len(ids)
        decisions = self.decide_batch(list(compress(ids, off)), gos)
        for k, dec in zip(compress(range(len(ids)), off), decisions):
            sampled[k] = dec[0]
            scaled[k] = dec[2]
        return sampled, scaled

    def _gap_one_bytes(self, ids, gos) -> list[int]:
        """Each id's scaled bytes at gap 1: its ``payload`` column, one
        gather per batch."""
        payload = gos.payload_np.take(np.fromiter(ids, np.intp, len(ids))).tolist()
        return list(map(self._sizes.__getitem__, payload))

    def classes(self) -> list[ClassSamplingState]:
        """All per-class sampling states created so far."""
        return list(self._states.values())
