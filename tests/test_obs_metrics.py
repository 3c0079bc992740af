"""The metrics registry: counter/gauge semantics and renderers."""

import dataclasses
import json

import pytest

from repro.errors import ObservabilityError
from repro.ftl.stats import FtlStats
from repro.obs.metrics import Counter, Gauge, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("requests_total")
        assert counter.value() == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labeled_series_are_independent(self):
        counter = Counter("ops_total", labelnames=("mode",))
        counter.inc(mode="R")
        counter.inc(3, mode="W")
        assert counter.value(mode="R") == 1
        assert counter.value(mode="W") == 3

    def test_negative_increment_rejected(self):
        counter = Counter("n_total")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_wrong_labels_rejected(self):
        counter = Counter("ops_total", labelnames=("mode",))
        with pytest.raises(ObservabilityError):
            counter.inc(kind="x")
        with pytest.raises(ObservabilityError):
            counter.inc()  # missing label

    def test_cardinality_cap_enforced(self):
        counter = Counter("ops_total", labelnames=("k",), max_series=3)
        for i in range(3):
            counter.inc(k=i)
        with pytest.raises(ObservabilityError):
            counter.inc(k="one-too-many")
        # Existing series keep working at the cap.
        counter.inc(k=0)
        assert counter.value(k=0) == 2


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.inc(-3)
        assert gauge.value() == 12

    def test_gauge_may_go_negative(self):
        gauge = Gauge("delta")
        gauge.inc(-4)
        assert gauge.value() == -4


class TestRegistry:
    def test_idempotent_registration_shares_series(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", labelnames=("mode",))
        b = registry.counter("hits_total", labelnames=("mode",))
        assert a is b
        a.inc(mode="R")
        assert b.value(mode="R") == 1

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ObservabilityError):
            registry.gauge("x_total")

    def test_labelname_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labelnames=("a",))
        with pytest.raises(ObservabilityError):
            registry.counter("x_total", labelnames=("b",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("bad name")
        with pytest.raises(ObservabilityError):
            registry.counter("")

    def test_text_rendering(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", "Operations.", labelnames=("mode",)).inc(
            2, mode="W"
        )
        registry.gauge("depth", "Queue depth.").set(7)
        text = registry.render_text()
        assert "# TYPE ops_total counter" in text
        assert 'ops_total{mode="W"} 2' in text
        assert "# HELP depth Queue depth." in text
        assert "depth 7" in text

    def test_json_rendering_round_trips(self):
        registry = MetricsRegistry()
        registry.loghistogram("lat_seconds").observe(1.0)
        registry.counter("n_total").inc()
        document = json.loads(registry.render_json())
        families = {f["name"]: f for f in document["families"]}
        assert families["n_total"]["series"][0]["value"] == 1
        hist = families["lat_seconds"]["series"][0]
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(1.0)
        assert hist["max"] == pytest.approx(1.0)

    def test_registry_iteration_is_name_sorted(self):
        registry = MetricsRegistry()
        registry.gauge("zz")
        registry.gauge("aa")
        assert [family.name for family in registry] == ["aa", "zz"]


class TestFtlStatsSnapshot:
    def test_snapshot_copies_every_field(self):
        # Regression: a hand-written copy silently drops fields added
        # later; dataclasses.replace cannot.
        stats = FtlStats()
        for index, field in enumerate(dataclasses.fields(FtlStats), start=1):
            setattr(stats, field.name, index)
        copy = stats.snapshot()
        assert copy is not stats
        for field in dataclasses.fields(FtlStats):
            assert getattr(copy, field.name) == getattr(stats, field.name), (
                f"snapshot() dropped field {field.name!r}"
            )

    def test_snapshot_is_independent(self):
        stats = FtlStats()
        copy = stats.snapshot()
        stats.host_writes += 10
        assert copy.host_writes == 0
