"""Per-slice labelled feature datasets.

A scenario run is replayed through :class:`RansomwareDetector` itself (with
a one-leaf tree: the features never depend on the tree) to obtain one
six-feature row per time slice, so the tree trains on exactly the features
it is later served; the run's ground truth labels each slice
ransomware-active or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.detector import RansomwareDetector
from repro.core.features import FeatureVector
from repro.core.id3 import DecisionTree
from repro.errors import TrainingError
from repro.rand import derive_seed
from repro.workloads.scenario import Scenario, ScenarioRun


@dataclass
class Dataset:
    """Feature rows plus 0/1 labels."""

    rows: List[List[float]] = field(default_factory=list)
    labels: List[int] = field(default_factory=list)

    def append(self, features: FeatureVector, label: int) -> None:
        """Add one slice's observation."""
        self.rows.append(features.as_list())
        self.labels.append(int(label))

    def extend(self, other: "Dataset") -> None:
        """Concatenate another dataset."""
        self.rows.extend(other.rows)
        self.labels.extend(other.labels)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def positives(self) -> int:
        """Ransomware-active rows."""
        return sum(self.labels)

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(X, y)`` numpy views for training."""
        if not self.rows:
            raise TrainingError("dataset is empty")
        return np.asarray(self.rows, dtype=float), np.asarray(self.labels, dtype=int)


def extract_feature_series(
    run: ScenarioRun, config: Optional[DetectorConfig] = None
) -> List[Tuple[int, FeatureVector]]:
    """Replay a run through the detector.

    Returns ``(slice_index, features)`` for every closed slice up to the
    run's duration — the values Algorithm 1 line 3 computes.
    """
    detector = RansomwareDetector(tree=DecisionTree.constant(0), config=config)
    for request in run.trace:
        detector.observe(request)
    detector.tick(run.duration)
    return [(event.slice_index, event.features) for event in detector.events]


def dataset_from_run(
    run: ScenarioRun, config: Optional[DetectorConfig] = None
) -> Dataset:
    """Labelled per-slice dataset for one scenario run."""
    config = config or DetectorConfig()
    dataset = Dataset()
    labels = run.slice_labels(config.slice_duration)
    for slice_index, features in extract_feature_series(run, config):
        label = labels[slice_index] if slice_index < len(labels) else 0
        dataset.append(features, label)
    return dataset


def build_dataset(
    scenarios: Iterable[Scenario],
    seed: int = 0,
    num_lbas: int = 120_000,
    duration: Optional[float] = None,
    runs_per_scenario: int = 1,
    config: Optional[DetectorConfig] = None,
) -> Dataset:
    """Labelled dataset over many scenarios (the Table I training matrix)."""
    config = config or DetectorConfig()
    dataset = Dataset()
    for scenario in scenarios:
        for repetition in range(runs_per_scenario):
            run_seed = derive_seed(seed, "dataset", scenario.name, str(repetition))
            run = scenario.build(seed=run_seed, num_lbas=num_lbas, duration=duration)
            dataset.extend(dataset_from_run(run, config))
    if len(dataset) == 0:
        raise TrainingError("no scenarios produced any slices")
    return dataset
