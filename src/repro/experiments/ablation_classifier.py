"""Model-choice ablation: ID3 tree vs logistic regression vs a stump.

The paper chooses the ID3 tree over "more powerful machine learning
algorithms" for firmware-resource reasons (§III-A).  This ablation
quantifies the trade: accuracy at the operating point, model footprint,
and comparisons per inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.report import render_table
from repro.core.baselines import LogisticDetector, ThresholdDetector
from repro.core.config import DetectorConfig
from repro.core.id3 import DecisionTree
from repro.train.dataset import build_dataset
from repro.train.evaluate import evaluate_accuracy
from repro.workloads.catalog import testing_scenarios, training_scenarios


@dataclass
class ClassifierRow:
    """One model's outcome at the operating point."""

    name: str
    worst_far: float
    worst_frr: float
    memory_bytes: int
    description: str


@dataclass
class ClassifierAblationResult:
    """All models, same training data, same evaluation."""

    rows: List[ClassifierRow]

    def render(self) -> str:
        """Text rendering of the rows/series the paper reports."""
        table_rows = [
            (row.name, f"{row.worst_far:.0%}", f"{row.worst_frr:.0%}",
             f"{row.memory_bytes} B", row.description)
            for row in self.rows
        ]
        return "\n".join(
            [
                "Classifier ablation at threshold 3 (worst category)",
                render_table(
                    ("model", "worst FAR", "worst FRR", "model DRAM", "notes"),
                    table_rows,
                ),
            ]
        )

    def row(self, name: str) -> ClassifierRow:
        """Find a model's row."""
        for candidate in self.rows:
            if candidate.name == name:
                return candidate
        raise KeyError(name)


def _tree_memory_bytes(tree: DecisionTree) -> int:
    # One firmware node: feature id + threshold + two child ids ~ 12 B.
    return 12 * tree.node_count()


def run(
    seed: int = 0,
    duration: float = 60.0,
    runs_per_scenario: int = 2,
    repetitions: int = 2,
    config: Optional[DetectorConfig] = None,
) -> ClassifierAblationResult:
    """Train all three models on identical data and evaluate each."""
    config = config or DetectorConfig()
    dataset = build_dataset(
        training_scenarios(), seed=seed, duration=duration,
        runs_per_scenario=runs_per_scenario, config=config,
    )
    X, y = dataset.as_arrays()

    tree = DecisionTree(max_depth=config.max_tree_depth).fit(X, y)
    logistic = LogisticDetector().fit(X, y)
    stump = ThresholdDetector().fit(X, y)

    models = [
        ("id3-tree", tree, _tree_memory_bytes(tree),
         f"depth {tree.depth()}, {tree.node_count()} nodes"),
        ("logistic", logistic, logistic.memory_bytes(),
         f"{logistic.parameter_count()} scalars + exp() per inference"),
        ("stump", stump, 8, stump.describe()),
    ]
    rows: List[ClassifierRow] = []
    for name, model, memory, description in models:
        curves = evaluate_accuracy(
            testing_scenarios(), model, thresholds=(config.threshold,),
            repetitions=repetitions, seed=seed + 1, duration=duration,
            config=config,
        )
        rows.append(
            ClassifierRow(
                name=name,
                worst_far=max(p[0].far for p in curves.values()),
                worst_frr=max(p[0].frr for p in curves.values()),
                memory_bytes=memory,
                description=description,
            )
        )
    return ClassifierAblationResult(rows=rows)


if __name__ == "__main__":
    print(run().render())
