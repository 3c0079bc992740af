"""Feature-vs-activity correlation (Figs 1a, 2a, 2c, 2e, 2g, 2h).

The paper's panels plot, per 1-second slice, how long the ransomware was
actually *in action* against the slice's feature value, showing a strong
positive correlation for every feature.  We reproduce the same measurement:
active time is estimated from the ransomware's own request stream (occupied
50-ms sub-bins), features from the detector front-end, and the summary
statistic is the Pearson correlation across slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.features import FEATURE_NAMES
from repro.errors import ConfigError
from repro.train.dataset import extract_feature_series
from repro.workloads.scenario import ScenarioRun

#: Sub-bin width used to estimate in-slice active time, in seconds.
ACTIVITY_BIN = 0.05


@dataclass(frozen=True)
class CorrelationResult:
    """Correlation of one feature with ransomware active time."""

    feature: str
    pearson: float
    #: (feature value, active seconds) per slice, for plotting.
    points: Tuple[Tuple[float, float], ...]


def active_seconds_per_slice(run: ScenarioRun, slice_duration: float = 1.0) -> List[float]:
    """Estimate how long the sample was active inside each slice."""
    if run.ransomware is None:
        raise ConfigError("run has no ransomware stream to measure")
    num_slices = int(run.duration // slice_duration)
    bins_per_slice = max(1, int(round(slice_duration / ACTIVITY_BIN)))
    occupied = [set() for _ in range(num_slices)]
    for request in run.trace:
        if request.source != run.ransomware:
            continue
        index = int(request.time // slice_duration)
        if index >= num_slices:
            continue
        sub_bin = int((request.time - index * slice_duration) / ACTIVITY_BIN)
        occupied[index].add(min(sub_bin, bins_per_slice - 1))
    return [len(bins) * ACTIVITY_BIN for bins in occupied]


def feature_activity_correlation(
    run: ScenarioRun,
    feature: str,
    config: DetectorConfig = None,
) -> CorrelationResult:
    """Correlate one feature's per-slice values with in-slice active time."""
    if feature not in FEATURE_NAMES:
        raise ConfigError(f"unknown feature {feature!r}; known: {FEATURE_NAMES}")
    config = config or DetectorConfig()
    feature_index = FEATURE_NAMES.index(feature)
    activity = active_seconds_per_slice(run, config.slice_duration)
    points: List[Tuple[float, float]] = []
    for slice_index, vector in extract_feature_series(run, config):
        if slice_index < len(activity):
            points.append((vector.as_tuple()[feature_index], activity[slice_index]))
    values = np.array([p[0] for p in points])
    active = np.array([p[1] for p in points])
    if len(points) < 2 or values.std() == 0 or active.std() == 0:
        pearson = 0.0
    else:
        pearson = float(np.corrcoef(values, active)[0, 1])
    return CorrelationResult(feature=feature, pearson=pearson, points=tuple(points))
