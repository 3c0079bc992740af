"""Detector configuration.

The paper's operating point: 1-second time slices, a 10-slice sliding
window (N = 10), and an alarm threshold of 3 decision-tree positives per
window (§III-B, §V-B and Fig. 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class DetectorConfig:
    """Tunable parameters of the detection pipeline.

    Attributes:
        slice_duration: Length of one time slice in seconds.
        window_slices: Number of slices per sliding window (the paper's N).
        threshold: Alarm when the window score reaches this value.
        max_tree_depth: Depth cap for the ID3 tree (firmware-sized).
    """

    slice_duration: float = 1.0
    window_slices: int = 10
    threshold: int = 3
    max_tree_depth: int = 6

    def __post_init__(self) -> None:
        if not 0 < self.slice_duration < math.inf:  # also false for NaN
            raise ConfigError(
                f"slice_duration must be positive and finite, got {self.slice_duration}"
            )
        if self.window_slices < 1:
            raise ConfigError(f"window_slices must be >= 1, got {self.window_slices}")
        if not (1 <= self.threshold <= self.window_slices):
            raise ConfigError(
                f"threshold must be in [1, {self.window_slices}], got {self.threshold}"
            )
        if self.max_tree_depth < 1:
            raise ConfigError(f"max_tree_depth must be >= 1, got {self.max_tree_depth}")
