"""Baseline classifiers for the model-choice ablation.

The paper picks a binary ID3 tree "owing to the resource limitation and
the tight time-bound characteristics of the SSD system", explicitly
declining heavier models (§III-A).  To quantify that trade-off, this
module implements a from-scratch logistic-regression classifier with the
same ``predict_one`` interface as the tree, plus a trivial
threshold-on-OWIO rule as the floor.  The ablation benchmark compares all
three on accuracy, model size (DRAM), and per-inference cost.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.features import FEATURE_NAMES
from repro.errors import NotFittedError, TrainingError


class LogisticDetector:
    """Binary logistic regression over the six features (batch gradient
    descent on standardised inputs, L2 regularised).

    Deliberately simple and dependency-free: the point is a fair
    like-for-like baseline, not a tuned model.
    """

    def __init__(
        self,
        learning_rate: float = 0.1,
        epochs: int = 400,
        l2: float = 1e-3,
        threshold: float = 0.5,
        feature_names: Sequence[str] = FEATURE_NAMES,
    ) -> None:
        if epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {epochs}")
        if not (0.0 < threshold < 1.0):
            raise TrainingError(f"threshold must be in (0, 1), got {threshold}")
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.threshold = threshold
        self.feature_names = list(feature_names)
        self.weights: Optional[np.ndarray] = None
        self.bias = 0.0
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None

    # -- training ---------------------------------------------------------

    def fit(self, features: Sequence[Sequence[float]],
            labels: Sequence[int]) -> "LogisticDetector":
        """Train on a feature matrix and 0/1 labels; returns self."""
        X = np.asarray(features, dtype=float)
        y = np.asarray(labels, dtype=float)
        if X.ndim != 2 or X.shape[0] == 0:
            raise TrainingError("need a non-empty 2-D feature matrix")
        if X.shape[0] != y.shape[0]:
            raise TrainingError("feature/label length mismatch")
        if X.shape[1] != len(self.feature_names):
            raise TrainingError(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}"
            )
        self._mean = X.mean(axis=0)
        self._std = X.std(axis=0)
        self._std[self._std == 0] = 1.0
        Z = (X - self._mean) / self._std
        n = Z.shape[0]
        self.weights = np.zeros(Z.shape[1])
        self.bias = 0.0
        for _ in range(self.epochs):
            logits = Z @ self.weights + self.bias
            predictions = _sigmoid(logits)
            error = predictions - y
            gradient_w = Z.T @ error / n + self.l2 * self.weights
            gradient_b = float(error.mean())
            self.weights -= self.learning_rate * gradient_w
            self.bias -= self.learning_rate * gradient_b
        return self

    # -- inference ---------------------------------------------------------

    def predict_proba_one(self, row: Sequence[float]) -> float:
        """P(ransomware) for one feature vector."""
        if self.weights is None:
            raise NotFittedError("LogisticDetector.fit was never called")
        z = (np.asarray(row, dtype=float) - self._mean) / self._std
        return float(_sigmoid(z @ self.weights + self.bias))

    def predict_one(self, row: Sequence[float]) -> int:
        """0/1 verdict, drop-in compatible with the ID3 tree."""
        return int(self.predict_proba_one(row) >= self.threshold)

    def predict(self, rows: Sequence[Sequence[float]]) -> List[int]:
        """Verdicts for many rows."""
        return [self.predict_one(row) for row in rows]

    # -- footprint ---------------------------------------------------------

    def parameter_count(self) -> int:
        """Learned scalars (weights + bias + standardisation)."""
        if self.weights is None:
            raise NotFittedError("LogisticDetector.fit was never called")
        return self.weights.size + 1 + 2 * self.weights.size

    def memory_bytes(self) -> int:
        """Firmware DRAM for the model, 4 bytes per scalar."""
        return 4 * self.parameter_count()


class ThresholdDetector:
    """The floor baseline: fire when one feature exceeds a threshold.

    The best single (feature, threshold) pair is chosen by training
    accuracy — effectively a depth-1 decision stump.
    """

    def __init__(self, feature_names: Sequence[str] = FEATURE_NAMES) -> None:
        self.feature_names = list(feature_names)
        self.feature: Optional[int] = None
        self.cut: float = 0.0

    def fit(self, features: Sequence[Sequence[float]],
            labels: Sequence[int]) -> "ThresholdDetector":
        """Pick the best single-feature threshold."""
        X = np.asarray(features, dtype=float)
        y = np.asarray(labels, dtype=int)
        if X.ndim != 2 or X.shape[0] == 0:
            raise TrainingError("need a non-empty 2-D feature matrix")
        best_accuracy = -1.0
        for feature in range(X.shape[1]):
            values = np.unique(X[:, feature])
            if values.size < 2:
                continue
            cuts = (values[:-1] + values[1:]) / 2.0
            for cut in cuts:
                accuracy = float(((X[:, feature] > cut) == y).mean())
                if accuracy > best_accuracy:
                    best_accuracy = accuracy
                    self.feature = feature
                    self.cut = float(cut)
        if self.feature is None:
            raise TrainingError("no feature had two distinct values")
        return self

    def predict_one(self, row: Sequence[float]) -> int:
        """0/1 verdict."""
        if self.feature is None:
            raise NotFittedError("ThresholdDetector.fit was never called")
        return int(row[self.feature] > self.cut)

    def describe(self) -> str:
        """Human-readable rule."""
        if self.feature is None:
            raise NotFittedError("ThresholdDetector.fit was never called")
        return f"{self.feature_names[self.feature]} > {self.cut:.4g}"


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))
