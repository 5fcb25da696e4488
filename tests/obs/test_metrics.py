"""Metrics registry: instruments, label sets, snapshots."""

import pytest

from repro.obs.metrics import Counter, Gauge, MetricsRegistry


class TestInstruments:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_gauge_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(3)
        g.dec()
        assert g.value == 12


class TestLabels:
    def test_labeled_children_independent(self):
        reg = MetricsRegistry()
        fam = reg.counter("requests_total", labels=("kind",))
        fam.labels(kind="read").inc(2)
        fam.labels(kind="write").inc()
        assert reg.value("requests_total", kind="read") == 2
        assert reg.value("requests_total", kind="write") == 1

    def test_wrong_label_names_rejected(self):
        reg = MetricsRegistry()
        fam = reg.counter("requests_total", labels=("kind",))
        with pytest.raises(ValueError, match="expects labels"):
            fam.labels(flavor="read")

    def test_unlabeled_family_proxies_instrument(self):
        reg = MetricsRegistry()
        c = reg.counter("faults_total")
        c.inc(7)
        assert c.value == 7
        assert reg.value("faults_total") == 7

    def test_samples_sorted_by_label_values(self):
        reg = MetricsRegistry()
        fam = reg.gauge("bytes", labels=("kind",))
        fam.labels(kind="zz").set(1)
        fam.labels(kind="aa").set(2)
        names = [name for name, _ in fam.samples()]
        assert names == ['bytes{kind="aa"}', 'bytes{kind="zz"}']


class TestRegistry:
    def test_same_name_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="re-registered"):
            reg.gauge("x")

    def test_label_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", labels=("a",))
        with pytest.raises(ValueError, match="re-registered"):
            reg.counter("x", labels=("b",))

    def test_value_of_absent_metric_is_zero(self):
        assert MetricsRegistry().value("nope") == 0

    def test_snapshot_sorted_and_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("zeta").inc(3)
            reg.gauge("alpha").set(1)
            fam = reg.counter("mid", labels=("k",))
            fam.labels(k="b").inc()
            fam.labels(k="a").inc(2)
            return reg.snapshot()

        snap = build()
        assert list(snap) == sorted(snap)
        assert snap == build()  # identical construction -> identical dict

    def test_collectors_run_at_snapshot_time(self):
        reg = MetricsRegistry()
        state = {"n": 5}
        reg.register_collector(lambda r: r.gauge("live").set(state["n"]))
        assert reg.snapshot()["live"] == 5
        state["n"] = 9
        assert reg.snapshot()["live"] == 9

    def test_snapshot_accrues_self_ns_outside_samples(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        snap = reg.snapshot()
        assert reg.self_ns > 0
        assert "self_ns" not in snap  # host time never enters the sample space

