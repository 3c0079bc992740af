"""ID3 decision tree (Quinlan 1986) with binary threshold splits.

The paper trains "a binary decision tree using ID3" over the six continuous
features.  Classic ID3 is defined for categorical attributes; the standard
adaptation for continuous ones — used here — evaluates binary splits
``feature <= threshold`` at candidate thresholds and picks the split with
the highest information gain, recursing until a depth cap, a purity stop,
or a minimum-sample stop.  The result is exactly the firmware-friendly
artefact the paper wants: a handful of scalar comparisons per slice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.features import FEATURE_NAMES
from repro.errors import NotFittedError, TrainingError


@dataclass
class TreeNode:
    """One node: either a split (feature, threshold) or a leaf (label)."""

    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    label: Optional[int] = None
    #: Training samples that reached this node (diagnostic only).
    samples: int = 0

    @property
    def is_leaf(self) -> bool:
        """True for terminal nodes."""
        return self.label is not None

    def depth(self) -> int:
        """Height of the subtree rooted here (leaf = 0)."""
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def node_count(self) -> int:
        """Total nodes in the subtree."""
        if self.is_leaf:
            return 1
        return 1 + self.left.node_count() + self.right.node_count()


@dataclass(frozen=True)
class PathStep:
    """One internal-node comparison on a root-to-leaf inference path.

    Attributes:
        node_id: Stable preorder index of the split node within the tree.
        feature: Feature index tested at the node.
        feature_name: Display name of the tested feature.
        threshold: The node's split threshold.
        value: The evaluated row's value for the feature.
        went_left: True when ``value <= threshold`` (the left branch).
    """

    node_id: int
    feature: int
    feature_name: str
    threshold: float
    value: float
    went_left: bool

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready rendering of the step."""
        return {
            "node_id": self.node_id,
            "feature": self.feature,
            "feature_name": self.feature_name,
            "threshold": self.threshold,
            "value": self.value,
            "branch": "left" if self.went_left else "right",
        }


@dataclass(frozen=True)
class TreePath:
    """A fully explained prediction: the exact root-to-leaf path taken."""

    label: int
    leaf_id: int
    leaf_samples: int
    steps: Tuple[PathStep, ...]

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready rendering of the whole path."""
        return {
            "label": self.label,
            "leaf_id": self.leaf_id,
            "leaf_samples": self.leaf_samples,
            "steps": [step.as_dict() for step in self.steps],
        }


def entropy(labels: np.ndarray) -> float:
    """Shannon entropy of a 0/1 label vector, in bits."""
    if labels.size == 0:
        return 0.0
    positive = float(np.count_nonzero(labels)) / labels.size
    if positive in (0.0, 1.0):
        return 0.0
    negative = 1.0 - positive
    return -(positive * np.log2(positive) + negative * np.log2(negative))


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    """Element-wise binary entropy, with H(0) = H(1) = 0."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    result = np.zeros_like(p)
    interior = (p > 0.0) & (p < 1.0)
    q = p[interior]
    result[interior] = -(q * np.log2(q) + (1.0 - q) * np.log2(1.0 - q))
    return result


class DecisionTree:
    """Binary ID3 classifier over continuous features.

    Args:
        max_depth: Depth cap (keeps the tree firmware-sized).
        min_samples_split: Do not split nodes smaller than this.
        min_samples_leaf: Reject splits that would create a child smaller
            than this — the guard against a handful of label-noise slices
            (e.g. a sample's first/last second under heavy background)
            carving out a leaf that then misfires on benign steady-state
            traffic.
        min_gain: Do not split when the best gain is below this.
        feature_names: Display names for :meth:`describe` and serialisation.
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_split: int = 16,
        min_samples_leaf: int = 10,
        min_gain: float = 1e-9,
        feature_names: Sequence[str] = FEATURE_NAMES,
    ) -> None:
        if max_depth < 1:
            raise TrainingError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise TrainingError(f"min_samples_split must be >= 2, got {min_samples_split}")
        if min_samples_leaf < 1:
            raise TrainingError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self.feature_names = list(feature_names)
        self.root: Optional[TreeNode] = None
        # id(node) -> stable preorder index, built lazily by explain_one
        # and discarded whenever the tree's structure changes.
        self._node_id_cache: Optional[Dict[int, int]] = None

    @classmethod
    def constant(cls, label: int) -> "DecisionTree":
        """A one-leaf tree that answers ``label`` for every row.

        Replays that read only the detector's features and counting table
        drive the detector with it: those never depend on the tree, and
        the default tree may itself be trained from such a replay.
        """
        tree = cls()
        tree.root = TreeNode(label=label)
        return tree

    # -- training ---------------------------------------------------------

    def fit(self, features: Sequence[Sequence[float]], labels: Sequence[int]) -> "DecisionTree":
        """Train on a feature matrix and 0/1 labels; returns self."""
        matrix = np.asarray(features, dtype=float)
        target = np.asarray(labels, dtype=int)
        if matrix.ndim != 2:
            raise TrainingError(f"feature matrix must be 2-D, got shape {matrix.shape}")
        if matrix.shape[0] == 0:
            raise TrainingError("cannot train on an empty dataset")
        if matrix.shape[0] != target.shape[0]:
            raise TrainingError(
                f"{matrix.shape[0]} feature rows but {target.shape[0]} labels"
            )
        if matrix.shape[1] != len(self.feature_names):
            raise TrainingError(
                f"expected {len(self.feature_names)} features per row, "
                f"got {matrix.shape[1]}"
            )
        if not np.isin(target, (0, 1)).all():
            raise TrainingError("labels must be 0 or 1")
        self.root = self._build(matrix, target, depth=0)
        self._node_id_cache = None
        return self

    def _build(self, matrix: np.ndarray, target: np.ndarray, depth: int) -> TreeNode:
        majority = int(np.count_nonzero(target) * 2 >= target.size)
        node = TreeNode(samples=target.size)
        if (
            depth >= self.max_depth
            or target.size < self.min_samples_split
            or entropy(target) == 0.0
        ):
            node.label = majority
            return node
        feature, threshold, gain = self._best_split(matrix, target)
        if feature is None or gain < self.min_gain:
            node.label = majority
            return node
        mask = matrix[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(matrix[mask], target[mask], depth + 1)
        node.right = self._build(matrix[~mask], target[~mask], depth + 1)
        # Collapse pointless splits where both children agree.
        if (
            node.left.is_leaf
            and node.right.is_leaf
            and node.left.label == node.right.label
        ):
            node.feature = None
            node.threshold = None
            node.label = node.left.label
            node.left = None
            node.right = None
        return node

    def _best_split(self, matrix: np.ndarray, target: np.ndarray):
        """Highest-gain ``(feature, threshold, gain)`` over all candidates.

        For each feature, candidate thresholds are the midpoints between
        distinct consecutive sorted values; the gains for every candidate
        are computed at once from prefix sums of the sorted labels.
        """
        best_feature, best_threshold, best_gain = None, None, 0.0
        total = target.size
        total_entropy = entropy(target)
        for feature in range(matrix.shape[1]):
            column = matrix[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_values = column[order]
            sorted_labels = target[order]
            cuts = np.nonzero(np.diff(sorted_values) > 0)[0]
            # Respect the leaf-size floor on both sides of the cut.
            leaf = self.min_samples_leaf
            cuts = cuts[(cuts + 1 >= leaf) & (total - (cuts + 1) >= leaf)]
            if cuts.size == 0:
                continue
            positives_prefix = np.cumsum(sorted_labels)
            left_sizes = cuts + 1
            left_positives = positives_prefix[cuts]
            right_sizes = total - left_sizes
            right_positives = positives_prefix[-1] - left_positives
            weighted = (
                left_sizes * _binary_entropy(left_positives / left_sizes)
                + right_sizes * _binary_entropy(right_positives / right_sizes)
            ) / total
            gains = total_entropy - weighted
            index = int(np.argmax(gains))
            if gains[index] > best_gain:
                best_gain = float(gains[index])
                cut = cuts[index]
                best_feature = feature
                best_threshold = float(
                    (sorted_values[cut] + sorted_values[cut + 1]) / 2.0
                )
        return best_feature, best_threshold, best_gain

    # -- inference ---------------------------------------------------------

    def predict_one(self, row: Sequence[float]) -> int:
        """Classify one feature vector; returns 0 (benign) or 1 (ransomware)."""
        if self.root is None:
            raise NotFittedError("DecisionTree.fit was never called")
        node = self.root
        while not node.is_leaf:
            if row[node.feature] <= node.threshold:
                node = node.left
            else:
                node = node.right
        return node.label

    def explain_one(self, row: Sequence[float]) -> TreePath:
        """Classify one feature vector and return the exact path taken.

        The returned :class:`TreePath` lists every internal-node comparison
        (stable preorder node id, feature, threshold, the row's value, and
        which branch was chosen) ending at the leaf whose label is the
        verdict.  By construction the label equals :meth:`predict_one` on
        the same row — the forensic record *is* the decision, not a
        post-hoc approximation.
        """
        if self.root is None:
            raise NotFittedError("DecisionTree.fit was never called")
        node_ids = self._node_ids()
        node = self.root
        steps: List[PathStep] = []
        while not node.is_leaf:
            value = float(row[node.feature])
            went_left = value <= node.threshold
            steps.append(PathStep(
                node_id=node_ids[id(node)],
                feature=node.feature,
                feature_name=self.feature_names[node.feature],
                threshold=float(node.threshold),
                value=value,
                went_left=went_left,
            ))
            node = node.left if went_left else node.right
        return TreePath(
            label=node.label,
            leaf_id=node_ids[id(node)],
            leaf_samples=node.samples,
            steps=tuple(steps),
        )

    def _node_ids(self) -> Dict[int, int]:
        """Map ``id(node)`` to its stable preorder index, cached."""
        if self._node_id_cache is None:
            cache: Dict[int, int] = {}
            stack = [self.root]
            counter = 0
            while stack:
                node = stack.pop()
                cache[id(node)] = counter
                counter += 1
                if not node.is_leaf:
                    stack.append(node.right)
                    stack.append(node.left)
            self._node_id_cache = cache
        return self._node_id_cache

    def predict(self, rows: Sequence[Sequence[float]]) -> List[int]:
        """Classify many feature vectors."""
        return [self.predict_one(row) for row in rows]

    def accuracy(self, rows: Sequence[Sequence[float]], labels: Sequence[int]) -> float:
        """Fraction of rows classified correctly."""
        predictions = self.predict(rows)
        if not predictions:
            return 1.0
        hits = sum(1 for p, t in zip(predictions, labels) if p == int(t))
        return hits / len(predictions)

    # -- introspection / persistence ------------------------------------

    def depth(self) -> int:
        """Trained tree depth."""
        if self.root is None:
            raise NotFittedError("DecisionTree.fit was never called")
        return self.root.depth()

    def node_count(self) -> int:
        """Trained tree size in nodes."""
        if self.root is None:
            raise NotFittedError("DecisionTree.fit was never called")
        return self.root.node_count()

    def describe(self) -> str:
        """Human-readable rendering of the trained tree."""
        if self.root is None:
            raise NotFittedError("DecisionTree.fit was never called")
        lines: List[str] = []
        self._describe(self.root, indent=0, lines=lines)
        return "\n".join(lines)

    def _describe(self, node: TreeNode, indent: int, lines: List[str]) -> None:
        pad = "  " * indent
        if node.is_leaf:
            verdict = "RANSOMWARE" if node.label == 1 else "benign"
            lines.append(f"{pad}-> {verdict} (n={node.samples})")
            return
        name = self.feature_names[node.feature]
        lines.append(f"{pad}{name} <= {node.threshold:.4g}? (n={node.samples})")
        self._describe(node.left, indent + 1, lines)
        self._describe(node.right, indent + 1, lines)

    def to_dict(self) -> Dict:
        """Serialise the trained tree to plain data."""
        if self.root is None:
            raise NotFittedError("DecisionTree.fit was never called")
        return {
            "feature_names": self.feature_names,
            "max_depth": self.max_depth,
            "root": self._node_to_dict(self.root),
        }

    def _node_to_dict(self, node: TreeNode) -> Dict:
        if node.is_leaf:
            return {"label": node.label, "samples": node.samples}
        return {
            "feature": node.feature,
            "threshold": node.threshold,
            "samples": node.samples,
            "left": self._node_to_dict(node.left),
            "right": self._node_to_dict(node.right),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "DecisionTree":
        """Rebuild a tree serialised by :meth:`to_dict`."""
        tree = cls(
            max_depth=data.get("max_depth", 6),
            feature_names=data["feature_names"],
        )
        tree.root = cls._node_from_dict(data["root"])
        return tree

    @staticmethod
    def _node_from_dict(data: Dict) -> TreeNode:
        if "label" in data:
            return TreeNode(label=data["label"], samples=data.get("samples", 0))
        return TreeNode(
            feature=data["feature"],
            threshold=data["threshold"],
            samples=data.get("samples", 0),
            left=DecisionTree._node_from_dict(data["left"]),
            right=DecisionTree._node_from_dict(data["right"]),
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write the tree as JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DecisionTree":
        """Read a tree written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
