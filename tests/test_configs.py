"""Configuration validation across the library."""

import pytest

from repro.core.config import DetectorConfig
from repro.errors import ConfigError
from repro.ftl.gc import GcPolicy
from repro.ftl.recovery_queue import RecoveryQueue
from repro.ftl.victim import VictimPolicy
from repro.ssd.config import SSDConfig


class TestDetectorConfig:
    def test_paper_defaults(self):
        config = DetectorConfig()
        assert config.slice_duration == 1.0
        assert config.window_slices == 10
        assert config.threshold == 3

    def test_rejects_bad_slice(self):
        with pytest.raises(ConfigError):
            DetectorConfig(slice_duration=0.0)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_rejects_non_finite_slice(self, duration):
        with pytest.raises(ConfigError):
            DetectorConfig(slice_duration=duration)

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigError):
            DetectorConfig(window_slices=0)

    def test_rejects_threshold_above_window(self):
        with pytest.raises(ConfigError):
            DetectorConfig(window_slices=5, threshold=6)

    def test_rejects_zero_threshold(self):
        with pytest.raises(ConfigError):
            DetectorConfig(threshold=0)

    def test_rejects_bad_depth(self):
        with pytest.raises(ConfigError):
            DetectorConfig(max_tree_depth=0)


class TestGcPolicy:
    def test_defaults(self):
        policy = GcPolicy()
        assert policy.trigger_free_blocks == 2
        assert policy.victim_policy is VictimPolicy.GREEDY

    def test_rejects_inverted_watermarks(self):
        with pytest.raises(ConfigError):
            GcPolicy(trigger_free_blocks=5, target_free_blocks=2)

    def test_rejects_zero_trigger(self):
        with pytest.raises(ConfigError):
            GcPolicy(trigger_free_blocks=0)

    def test_custom_victim_policy(self):
        policy = GcPolicy(victim_policy=VictimPolicy.COST_BENEFIT)
        assert policy.victim_policy is VictimPolicy.COST_BENEFIT


class TestSSDConfig:
    def test_paper_retention_default(self):
        assert SSDConfig().retention == 10.0

    def test_rejects_bad_retention(self):
        with pytest.raises(ConfigError):
            SSDConfig(retention=0.0)

    @pytest.mark.parametrize("retention", [float("nan"), float("inf")])
    def test_rejects_non_finite_retention(self, retention):
        # A NaN window never expires an entry: every write stays queued
        # and pinned, and each expire() takes its slow path.
        with pytest.raises(ConfigError):
            SSDConfig.tiny(retention=retention)
        with pytest.raises(ConfigError):
            RecoveryQueue(retention=retention)

    def test_tiny_raises_op_for_gc_headroom(self):
        assert SSDConfig.tiny().op_ratio == pytest.approx(0.45)

    def test_tiny_override_respected(self):
        assert SSDConfig.tiny(op_ratio=0.5).op_ratio == 0.5

    def test_small_uses_small_geometry(self):
        config = SSDConfig.small()
        assert config.geometry.pages_total == 16384
