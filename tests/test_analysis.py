"""Correlation/cumulative analysis and table rendering."""

import pytest

from repro.analysis.correlation import (
    active_seconds_per_slice,
    feature_activity_correlation,
)
from repro.analysis.cumulative import cumulative_feature_series
from repro.analysis.report import render_table
from repro.errors import ConfigError
from repro.workloads.scenario import Scenario


@pytest.fixture(scope="module")
def ransom_run():
    return Scenario("corr", ransomware="wannacry", onset=5.0).build(
        seed=1, duration=30.0
    )


class TestActiveSeconds:
    def test_quiet_slices_zero(self, ransom_run):
        active = active_seconds_per_slice(ransom_run)
        assert active[0] == 0.0

    def test_active_slices_positive(self, ransom_run):
        active = active_seconds_per_slice(ransom_run)
        busy = [a for a in active if a > 0]
        assert busy
        assert all(0 < a <= 1.0 for a in busy)

    def test_benign_run_rejected(self):
        run = Scenario("b", app="websurfing").build(seed=1, duration=10.0)
        with pytest.raises(ConfigError):
            active_seconds_per_slice(run)


class TestCorrelation:
    def test_owio_strongly_correlated(self, ransom_run):
        result = feature_activity_correlation(ransom_run, "owio")
        assert result.pearson > 0.8

    def test_points_one_per_slice(self, ransom_run):
        result = feature_activity_correlation(ransom_run, "owio")
        assert len(result.points) == 30

    def test_unknown_feature_rejected(self, ransom_run):
        with pytest.raises(ConfigError):
            feature_activity_correlation(ransom_run, "entropy")


class TestCumulative:
    def test_series_nondecreasing(self, ransom_run):
        series = cumulative_feature_series(ransom_run, "owio")
        assert all(b >= a for a, b in zip(series, series[1:]))

    def test_unknown_feature_rejected(self, ransom_run):
        with pytest.raises(ConfigError):
            cumulative_feature_series(ransom_run, "bogus")


class TestRenderTable:
    def test_alignment_and_rule(self):
        text = render_table(("name", "value"), [("a", 1), ("long-name", 2.5)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_number_formatting(self):
        text = render_table(("v",), [(1234567.0,), (0.1234,), (0.0,)])
        assert "1,234,567" in text
        assert "0.1234" in text

    def test_empty_rows(self):
        text = render_table(("a", "b"), [])
        assert len(text.splitlines()) == 2
