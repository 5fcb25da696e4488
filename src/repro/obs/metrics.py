"""Typed metrics registry: Counters and Gauges with label sets and
deterministic snapshot ordering.

Each run has one registry, created by the HLRC engine
(``HomeBasedLRC.metrics``); it is the single sink for every statistic
the simulated DJVM produces.  Hot paths hold *bound handles* (a :class:`Counter` child
fetched once at wiring time), so an increment is one attribute add —
no dict lookup, no label formatting.  Everything cold (traffic, heap
occupancy, profiler totals) is folded in at snapshot time through
registered collector callbacks.

Two properties matter for the determinism contract:

* a snapshot is an ``{sample_name: value}`` dict sorted by sample name
  (metric name, then label values), so two identical runs serialize to
  identical JSON;
* every value is simulation state (counts, bytes, simulated ns) —
  wall-clock self-measurement lives on :attr:`MetricsRegistry.self_ns`
  *outside* the sample space, so snapshots never embed host timing.

Instruments are stdlib-only and import nothing from the runtime, so any
layer (DSM, sim kernel, placement) can depend on this module without
cycles.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
]

_perf_ns = time.perf_counter_ns


# ---------------------------------------------------------------------------
# live instruments
# ---------------------------------------------------------------------------


class Counter:
    """Monotonic event count.  ``inc`` is the hot-path operation."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Point-in-time level (set/inc/dec)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, n=1) -> None:
        self.value += n

    def dec(self, n=1) -> None:
        self.value -= n


# ---------------------------------------------------------------------------
# families and registry
# ---------------------------------------------------------------------------


class MetricFamily:
    """One named metric with zero or more label dimensions.

    An unlabeled family proxies the instrument API directly (``inc`` /
    ``set`` / ``dec`` hit a default child), so simple metrics need no
    ``labels()`` call.
    """

    __slots__ = ("name", "help", "kind", "label_names", "_make", "_children", "_default")

    def __init__(self, name, help_text, label_names, make):
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._make = make
        self.kind = make().kind
        self._children: dict[tuple, object] = {}
        self._default = None
        if not self.label_names:
            self._default = make()
            self._children[()] = self._default

    def labels(self, **kv):
        """The child instrument for one label-value combination."""
        if set(kv) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(kv))}"
            )
        key = tuple(str(kv[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._make()
            self._children[key] = child
        return child

    # -- unlabeled proxy ------------------------------------------------
    def inc(self, n=1):
        self._default.inc(n)

    def set(self, value):
        self._default.set(value)

    def dec(self, n=1):
        self._default.dec(n)

    @property
    def value(self):
        return self._default.value

    def samples(self):
        """``(sample_name, value)`` pairs, sorted by label values."""
        for key in sorted(self._children):
            child = self._children[key]
            if key:
                label_str = ",".join(
                    f'{name}="{val}"' for name, val in zip(self.label_names, key)
                )
                yield (f"{self.name}{{{label_str}}}", child.value)
            else:
                yield (self.name, child.value)


class MetricsRegistry:
    """Home of every metric family plus the snapshot-time collectors."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []
        #: real wall ns spent inside snapshot/collector work (self-overhead).
        self.self_ns = 0

    # -- instrument constructors ---------------------------------------

    def counter(self, name, help_text: str = "", labels=()) -> MetricFamily:
        return self._family(name, help_text, labels, Counter)

    def gauge(self, name, help_text: str = "", labels=()) -> MetricFamily:
        return self._family(name, help_text, labels, Gauge)

    def _family(self, name, help_text, labels, make) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, help_text, labels, make)
            self._families[name] = family
            return family
        if family.kind != make().kind or family.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} re-registered with a different type or "
                f"label set ({family.kind}/{family.label_names})"
            )
        return family

    def get(self, name) -> MetricFamily | None:
        """The family registered under ``name`` (None when absent)."""
        return self._families.get(name)

    def value(self, name, **labels):
        """Convenience: the current value of one sample (0 if absent)."""
        family = self._families.get(name)
        if family is None:
            return 0
        if labels:
            return family.labels(**labels).value
        return family.value

    # -- collectors and snapshots --------------------------------------

    def register_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run at every snapshot.  Collectors read
        subsystem state and ``set`` gauges; they must not mutate the
        simulation."""
        self._collectors.append(fn)

    def snapshot(self) -> dict:
        """Run collectors, then return every sample as an ordered dict
        sorted by sample name — deterministic across identical runs."""
        t0 = _perf_ns()
        for fn in self._collectors:
            fn(self)
        samples = []
        for name in sorted(self._families):
            samples.extend(self._families[name].samples())
        out = dict(sorted(samples))
        self.self_ns += _perf_ns() - t0
        return out
