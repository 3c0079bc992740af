"""ID3 decision tree: entropy, fitting, prediction, persistence."""

import numpy as np
import pytest

from repro.core.id3 import DecisionTree, entropy
from repro.errors import NotFittedError, TrainingError

NAMES = ("a", "b")


def fit(features, labels, **kwargs):
    kwargs.setdefault("feature_names", NAMES)
    kwargs.setdefault("min_samples_split", 2)
    kwargs.setdefault("min_samples_leaf", 1)
    return DecisionTree(**kwargs).fit(features, labels)


class TestEntropy:
    def test_pure_is_zero(self):
        assert entropy(np.array([1, 1, 1])) == 0.0
        assert entropy(np.array([0, 0])) == 0.0

    def test_balanced_is_one_bit(self):
        assert entropy(np.array([0, 1, 0, 1])) == pytest.approx(1.0)

    def test_empty_is_zero(self):
        assert entropy(np.array([])) == 0.0


class TestFit:
    def test_learns_threshold(self):
        X = [[0.0, 0], [1.0, 0], [2.0, 0], [10.0, 0], [11.0, 0], [12.0, 0]]
        y = [0, 0, 0, 1, 1, 1]
        tree = fit(X, y)
        assert tree.predict_one([1.5, 0]) == 0
        assert tree.predict_one([11.5, 0]) == 1
        assert tree.depth() == 1

    def test_learns_conjunction(self):
        X = [[a, b] for a in (0, 1) for b in (0, 1) for _ in range(3)]
        y = [1 if (a == 1 and b == 1) else 0 for a, b, in
             [(row[0], row[1]) for row in X]]
        tree = fit(X, y)
        assert tree.predict_one([1, 1]) == 1
        assert tree.predict_one([1, 0]) == 0
        assert tree.predict_one([0, 1]) == 0

    def test_pure_dataset_single_leaf(self):
        tree = fit([[1, 2], [3, 4]], [0, 0])
        assert tree.root.is_leaf
        assert tree.node_count() == 1

    def test_depth_cap_respected(self):
        rng = np.random.default_rng(0)
        X = rng.random((200, 2))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
        tree = fit(X.tolist(), y.tolist(), max_depth=2)
        assert tree.depth() <= 2

    def test_min_samples_leaf_blocks_tiny_leaves(self):
        X = [[float(i), 0.0] for i in range(20)]
        y = [0] * 19 + [1]  # one outlier
        tree = fit(X, y, min_samples_leaf=5)
        # The outlier cannot get its own leaf; majority wins.
        assert tree.predict_one([19.0, 0.0]) == 0

    def test_training_accuracy_high_on_separable(self):
        rng = np.random.default_rng(1)
        X0 = rng.normal(0, 1, (50, 2))
        X1 = rng.normal(6, 1, (50, 2))
        X = np.vstack([X0, X1]).tolist()
        y = [0] * 50 + [1] * 50
        tree = fit(X, y)
        assert tree.accuracy(X, y) >= 0.98

    def test_collapses_redundant_split(self):
        # Both children would predict 0: the node must fold to a leaf.
        X = [[0.0, 0], [1.0, 0], [2.0, 0], [3.0, 0], [4.0, 1]]
        y = [0, 0, 0, 0, 0]
        tree = fit(X, y)
        assert tree.node_count() == 1


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(TrainingError):
            fit([], [])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(TrainingError):
            fit([[1, 2]], [0, 1])

    def test_rejects_wrong_feature_count(self):
        with pytest.raises(TrainingError):
            fit([[1, 2, 3]], [0])

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(TrainingError):
            fit([[1, 2], [3, 4]], [0, 2])

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            DecisionTree(feature_names=NAMES).predict_one([0, 0])

    def test_rejects_bad_hyperparams(self):
        with pytest.raises(TrainingError):
            DecisionTree(max_depth=0)
        with pytest.raises(TrainingError):
            DecisionTree(min_samples_split=1)
        with pytest.raises(TrainingError):
            DecisionTree(min_samples_leaf=0)


class TestPersistence:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.random((100, 2)).tolist()
        y = [int(a > 0.5) for a, _ in X]
        tree = fit(X, y)
        path = tmp_path / "tree.json"
        tree.save(path)
        loaded = DecisionTree.load(path)
        assert loaded.predict(X) == tree.predict(X)
        assert loaded.feature_names == list(NAMES)

    def test_describe_mentions_features(self):
        tree = fit([[0.0, 0], [10.0, 0]] * 3, [0, 1] * 3)
        assert "a <=" in tree.describe()
        assert "RANSOMWARE" in tree.describe() or "benign" in tree.describe()

    def test_to_dict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTree(feature_names=NAMES).to_dict()
