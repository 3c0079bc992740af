"""Mergeable log-bucketed histograms + registry merge/compact/prometheus."""

import json
import math
import random

import pytest

from repro.errors import ObservabilityError
from repro.obs.hist import (
    DEFAULT_MIN_VALUE,
    DEFAULT_SUBBUCKETS,
    LogHistogram,
)
from repro.obs.metrics import MetricsRegistry


def assert_bucket_exact(left: LogHistogram, right: LogHistogram) -> None:
    """Bucket-exact equality: every integer field matches exactly.

    ``sum`` is a float accumulated in stream order, so shard-merged and
    pooled histograms agree only up to addition associativity — compare
    it with a tolerance rather than bit-for-bit.
    """
    assert left.counts == right.counts
    assert left.zero_count == right.zero_count
    assert left.count == right.count
    assert left.min == right.min
    assert left.max == right.max
    assert left.sum == pytest.approx(right.sum, rel=1e-12)


class TestBucketing:
    def test_bucket_bounds_contain_their_values(self):
        hist = LogHistogram()
        for value in (1e-9, 3.7e-6, 0.5, 1.0, 123.456, 9e9):
            index = hist.index_of(value)
            lower, upper = hist.bucket_bounds(index)
            assert lower <= value < upper or math.isclose(value, lower)

    def test_relative_bucket_width_bounded(self):
        hist = LogHistogram(subbuckets=32)
        for value in (2e-9, 5e-5, 0.123, 42.0):
            lower, upper = hist.bucket_bounds(hist.index_of(value))
            assert (upper - lower) / lower <= 1.0 / 32 + 1e-12

    def test_non_positive_values_go_to_zero_bucket(self):
        hist = LogHistogram()
        hist.record(0.0)
        hist.record(-1.5)
        assert hist.zero_count == 2
        assert hist.count == 2
        assert not hist.counts

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ObservabilityError):
            LogHistogram(subbuckets=0)
        with pytest.raises(ObservabilityError):
            LogHistogram(min_value=0.0)


class TestMerge:
    def test_shard_merge_is_bucket_exact_vs_pooled(self):
        # The fleet-aggregation contract: N shards merged == one histogram
        # that saw the concatenated stream, bucket for bucket.
        rng = random.Random(20180706)
        samples = [rng.lognormvariate(-9, 2.5) for _ in range(5000)]
        shards = [LogHistogram() for _ in range(4)]
        pooled = LogHistogram()
        for i, value in enumerate(samples):
            shards[i % 4].record(value)
            pooled.record(value)
        merged = LogHistogram()
        for shard in shards:
            merged.merge(shard)
        assert_bucket_exact(merged, pooled)

    def test_merge_order_does_not_matter(self):
        a, b = LogHistogram(), LogHistogram()
        for value in (1e-6, 2e-6, 5e-3):
            a.record(value)
        for value in (7e-9, 0.5):
            b.record(value)
        ab = LogHistogram().merge(a).merge(b)
        ba = LogHistogram().merge(b).merge(a)
        assert ab == ba

    def test_incompatible_parameters_rejected(self):
        with pytest.raises(ObservabilityError):
            LogHistogram(subbuckets=32).merge(LogHistogram(subbuckets=16))
        with pytest.raises(ObservabilityError):
            LogHistogram(min_value=1e-9).merge(LogHistogram(min_value=1e-6))


class TestCompact:
    def test_round_trip_is_lossless(self):
        rng = random.Random(7)
        hist = LogHistogram()
        for _ in range(1000):
            hist.record(rng.expovariate(1e5))
        hist.record(0.0)
        payload = json.loads(json.dumps(hist.to_compact()))
        assert LogHistogram.from_compact(payload) == hist

    def test_empty_round_trip(self):
        hist = LogHistogram(subbuckets=8, min_value=1e-6)
        restored = LogHistogram.from_compact(hist.to_compact())
        assert restored == hist
        assert restored.subbuckets == 8

    def test_wrong_schema_rejected(self):
        with pytest.raises(ObservabilityError):
            LogHistogram.from_compact({"schema": "bogus/v0"})


class TestQuantiles:
    def test_quantile_error_within_documented_bound(self):
        # Seeded property test: for arbitrary positive samples, every
        # quantile read back is within the bucket resolution (1/subbuckets,
        # plus the midpoint's half-bucket) of the exact sample quantile.
        rng = random.Random(12345)
        for trial in range(20):
            subbuckets = rng.choice((16, 32, 64))
            hist = LogHistogram(subbuckets=subbuckets)
            samples = sorted(
                rng.lognormvariate(rng.uniform(-12, 2), rng.uniform(0.2, 3))
                for _ in range(rng.randrange(50, 2000))
            )
            for value in samples:
                hist.record(value)
            for q in (0.01, 0.25, 0.5, 0.9, 0.99, 1.0):
                exact = samples[max(0, math.ceil(q * len(samples)) - 1)]
                estimate = hist.quantile(q)
                relative_error = abs(estimate - exact) / exact
                assert relative_error <= 1.0 / subbuckets, (
                    f"trial {trial}: q={q} estimate {estimate} vs exact "
                    f"{exact} (rel err {relative_error:.4f} > "
                    f"1/{subbuckets})"
                )

    def test_mean_is_exact(self):
        hist = LogHistogram()
        values = (1e-6, 3e-6, 9e-6, 2e-5)
        for value in values:
            hist.record(value)
        assert hist.mean() == pytest.approx(sum(values) / len(values))

    def test_quantile_of_empty_is_zero(self):
        assert LogHistogram().quantile(0.5) == 0.0

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ObservabilityError):
            LogHistogram().quantile(1.5)


class TestCumulativeBuckets:
    def test_prometheus_pairs_are_cumulative_and_end_at_inf(self):
        hist = LogHistogram()
        for value in (1e-6, 1e-6, 5e-3, 2.0):
            hist.record(value)
        pairs = hist.cumulative_buckets()
        bounds = [bound for bound, _ in pairs]
        counts = [count for _, count in pairs]
        assert bounds == sorted(bounds)
        assert counts == sorted(counts)
        assert pairs[-1] == (math.inf, 4)


class TestRegistryMerge:
    def _run(self, values, n_total, depth):
        registry = MetricsRegistry()
        lat = registry.loghistogram("lat_seconds", "Latency.",
                                    labelnames=("mode",))
        for mode, value in values:
            lat.observe(value, mode=mode)
        registry.counter("n_total").inc(n_total)
        registry.gauge("depth").set(depth)
        return registry

    def test_two_runs_merge_bucket_exact_vs_pooled(self):
        rng = random.Random(99)
        run_a = [("R" if i % 3 else "W", rng.expovariate(1e4))
                 for i in range(400)]
        run_b = [("R" if i % 2 else "W", rng.expovariate(1e5))
                 for i in range(300)]
        merged = self._run(run_a, n_total=4, depth=2)
        merged.merge(self._run(run_b, n_total=6, depth=9))
        pooled = self._run(run_a + run_b, n_total=10, depth=9)
        for mode in ("R", "W"):
            assert_bucket_exact(merged.get("lat_seconds").series(mode=mode),
                                pooled.get("lat_seconds").series(mode=mode))
        assert merged.get("n_total").value() == 10  # counters add
        assert merged.get("depth").value() == 9     # gauges take incoming

    def test_merge_adopts_missing_families(self):
        left = MetricsRegistry()
        right = MetricsRegistry()
        right.counter("only_right_total").inc(3)
        left.merge(right)
        assert left.get("only_right_total").value() == 3
        # Adopted state is a copy, not a shared reference.
        right.counter("only_right_total").inc()
        assert left.get("only_right_total").value() == 3

    def test_mismatched_histogram_buckets_rejected(self):
        left = MetricsRegistry()
        right = MetricsRegistry()
        left.loghistogram("h", subbuckets=32).observe(0.5)
        right.loghistogram("h", subbuckets=16).observe(0.5)
        with pytest.raises(ObservabilityError):
            left.merge(right)

    def test_registry_compact_round_trip(self):
        registry = self._run([("R", 2e-6), ("W", 0.4)], n_total=2, depth=1)
        registry.record_snapshot(1.0, wall_time=10.0)
        payload = json.loads(json.dumps(registry.to_compact()))
        restored = MetricsRegistry.from_compact(payload)
        assert restored.to_compact() == registry.to_compact()
        assert len(restored.snapshots) == 1

    def test_compact_wrong_schema_rejected(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry.from_compact({"schema": "nope"})
        # The fixed-bucket "histogram" kind is gone; a payload naming it
        # is an unknown kind, not a silently dropped family.
        payload = MetricsRegistry().to_compact()
        payload["families"] = [{
            "name": "h", "kind": "histogram", "labelnames": [],
            "buckets": [1.0, 2.0], "series": [],
        }]
        with pytest.raises(ObservabilityError, match="unknown metric kind"):
            MetricsRegistry.from_compact(payload)


class TestSnapshots:
    def test_record_snapshot_captures_scalars(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", labelnames=("mode",)).inc(2, mode="R")
        registry.gauge("depth").set(5)
        row = registry.record_snapshot(12.5, wall_time=100.0)
        assert row["sim_time"] == 12.5
        assert row["values"]['ops_total{mode="R"}'] == 2
        assert row["values"]["depth"] == 5

    def test_snapshot_ring_bounds_and_counts_drops(self):
        registry = MetricsRegistry(max_snapshots=3)
        for i in range(5):
            registry.record_snapshot(float(i), wall_time=0.0)
        assert len(registry.snapshots) == 3
        assert registry.snapshots_dropped == 2
        assert [row["sim_time"] for row in registry.snapshots] == [2.0, 3.0, 4.0]


class TestPrometheusRendering:
    def test_exposition_format_sanity(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", "Operations.").inc(3)
        lat = registry.loghistogram("lat_seconds", "Latency.")
        for value in (1e-6, 4e-6, 2e-3):
            lat.observe(value)
        text = registry.render_prometheus()
        assert text.endswith("\n") and not text.endswith("\n\n")
        lines = text.splitlines()
        assert "# TYPE ops_total counter" in lines
        assert "# TYPE lat_seconds histogram" in lines
        assert 'lat_seconds_bucket{le="+Inf"} 3' in lines
        assert "lat_seconds_count 3" in lines
        sum_lines = [l for l in lines if l.startswith("lat_seconds_sum ")]
        assert len(sum_lines) == 1
        # le buckets must be cumulative (non-decreasing).
        bucket_counts = [
            int(line.rsplit(" ", 1)[1]) for line in lines
            if line.startswith("lat_seconds_bucket")
        ]
        assert bucket_counts == sorted(bucket_counts)
        # Every non-comment line is "name{labels} value".
        for line in lines:
            if line.startswith("#") or not line:
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)
            assert name_part[0].isalpha() or name_part[0] == "_"

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""
