"""Cumulative feature series (Figs 1b, 2b, 2d, 2f).

The paper's cumulative panels overlay ransomware samples and normal
applications, showing that ransomware's overwrite statistics grow much
faster than every benign workload except data wiping.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import DetectorConfig
from repro.core.features import FEATURE_NAMES
from repro.errors import ConfigError
from repro.train.dataset import extract_feature_series
from repro.workloads.scenario import ScenarioRun

#: Features whose per-slice values the paper accumulates.
CUMULATIVE_FEATURES = ("owio", "owst", "pwio", "avgwio")


def cumulative_feature_series(
    run: ScenarioRun,
    feature: str,
    config: Optional[DetectorConfig] = None,
) -> List[float]:
    """Per-slice cumulative sum of one feature over a run."""
    if feature not in FEATURE_NAMES:
        raise ConfigError(f"unknown feature {feature!r}; known: {FEATURE_NAMES}")
    config = config or DetectorConfig()
    feature_index = FEATURE_NAMES.index(feature)
    series: List[float] = []
    total = 0.0
    for _, vector in extract_feature_series(run, config):
        total += vector.as_tuple()[feature_index]
        series.append(total)
    return series

