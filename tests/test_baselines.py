"""Baseline classifiers: logistic regression and the threshold stump."""

import numpy as np
import pytest

from repro.core.baselines import LogisticDetector, ThresholdDetector
from repro.errors import NotFittedError, TrainingError

NAMES = ("a", "b")


def separable_data(n=100, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 1.0, (n, 2))
    X1 = rng.normal(5.0, 1.0, (n, 2))
    X = np.vstack([X0, X1]).tolist()
    y = [0] * n + [1] * n
    return X, y


class TestLogisticDetector:
    def test_learns_separable_problem(self):
        X, y = separable_data()
        model = LogisticDetector(feature_names=NAMES).fit(X, y)
        hits = sum(p == t for p, t in zip(model.predict(X), y))
        assert hits / len(y) > 0.97

    def test_probabilities_ordered(self):
        X, y = separable_data()
        model = LogisticDetector(feature_names=NAMES).fit(X, y)
        assert model.predict_proba_one([5, 5]) > model.predict_proba_one([0, 0])

    def test_predict_one_binary(self):
        X, y = separable_data()
        model = LogisticDetector(feature_names=NAMES).fit(X, y)
        assert model.predict_one([5, 5]) == 1
        assert model.predict_one([0, 0]) == 0

    def test_constant_feature_tolerated(self):
        X = [[0.0, 3.0], [1.0, 3.0], [4.0, 3.0], [5.0, 3.0]]
        y = [0, 0, 1, 1]
        model = LogisticDetector(feature_names=NAMES, epochs=800).fit(X, y)
        assert model.predict_one([5.0, 3.0]) == 1

    def test_footprint_accounting(self):
        X, y = separable_data()
        model = LogisticDetector(feature_names=NAMES).fit(X, y)
        # 2 weights + 1 bias + 2 means + 2 stds = 7 scalars.
        assert model.parameter_count() == 7
        assert model.memory_bytes() == 28

    def test_rejects_misuse(self):
        with pytest.raises(NotFittedError):
            LogisticDetector(feature_names=NAMES).predict_one([0, 0])
        with pytest.raises(TrainingError):
            LogisticDetector(feature_names=NAMES).fit([], [])
        with pytest.raises(TrainingError):
            LogisticDetector(feature_names=NAMES).fit([[1, 2]], [0, 1])
        with pytest.raises(TrainingError):
            LogisticDetector(epochs=0)


class TestThresholdDetector:
    def test_finds_separating_feature(self):
        X = [[0, 9], [1, 8], [2, 7], [10, 1], [11, 2], [12, 0]]
        y = [0, 0, 0, 1, 1, 1]
        model = ThresholdDetector(feature_names=NAMES).fit(X, y)
        assert model.feature == 0
        assert model.predict_one([11, 5]) == 1
        assert model.predict_one([1, 5]) == 0

    def test_describe_names_feature(self):
        X = [[0, 0], [10, 0]] * 4
        y = [0, 1] * 4
        model = ThresholdDetector(feature_names=NAMES).fit(X, y)
        assert model.describe().startswith("a >")

    def test_rejects_degenerate_data(self):
        with pytest.raises(TrainingError):
            ThresholdDetector(feature_names=NAMES).fit(
                [[1, 1], [1, 1]], [0, 1]
            )

    def test_unfitted_rejected(self):
        with pytest.raises(NotFittedError):
            ThresholdDetector().predict_one([0] * 6)
