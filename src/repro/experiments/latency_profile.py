"""Per-sample detection-latency profile.

The abstract promises detection "within 10s".  This experiment breaks the
number down per ransomware sample and per background class: mean, p95 and
max latency over repeated runs, plus how many victim blocks the sample
managed to overwrite before the lockdown (the paper's recovery makes that
damage reversible, but the latency still bounds the attacker's dwell
time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.report import render_table
from repro.core.config import DetectorConfig
from repro.core.id3 import DecisionTree
from repro.core.pretrained import default_tree
from repro.rand import derive_seed
from repro.train.evaluate import evaluate_run
from repro.workloads.catalog import testing_scenarios


@dataclass
class LatencyRow:
    """One testing combination's latency statistics."""

    scenario: str
    category: str
    runs: int
    detected: int
    mean_latency: float
    p95_latency: float
    max_latency: float


@dataclass
class LatencyProfileResult:
    """All testing combinations."""

    rows: List[LatencyRow]
    threshold: int

    def render(self) -> str:
        """Text rendering of the rows/series the paper reports."""
        table_rows = [
            (
                row.scenario,
                row.category,
                f"{row.detected}/{row.runs}",
                f"{row.mean_latency:.1f} s" if row.detected else "-",
                f"{row.p95_latency:.1f} s" if row.detected else "-",
                f"{row.max_latency:.1f} s" if row.detected else "-",
            )
            for row in self.rows
        ]
        overall = [value for row in self.rows
                   for value in [row.mean_latency] if row.detected]
        return "\n".join(
            [
                f"Detection latency per testing combination (threshold "
                f"{self.threshold}; paper: within 10 s)",
                render_table(
                    ("combination", "category", "detected", "mean", "p95",
                     "max"),
                    table_rows,
                ),
                f"grand mean of means: "
                f"{sum(overall) / len(overall):.1f} s" if overall else "",
            ]
        )

    def worst_mean(self) -> float:
        """The slowest combination's mean latency."""
        return max(row.mean_latency for row in self.rows if row.detected)


def run(
    repetitions: int = 5,
    seed: int = 11,
    duration: float = 60.0,
    tree: Optional[DecisionTree] = None,
    config: Optional[DetectorConfig] = None,
) -> LatencyProfileResult:
    """Measure latency statistics across the testing matrix."""
    config = config or DetectorConfig()
    tree = tree or default_tree()
    rows: List[LatencyRow] = []
    for scenario in testing_scenarios():
        latencies: List[float] = []
        for repetition in range(repetitions):
            run_seed = derive_seed(seed, "latency", scenario.name,
                                   str(repetition))
            scenario_run = scenario.build(seed=run_seed, duration=duration)
            outcome = evaluate_run(scenario_run, tree, config)
            latency = outcome.detection_latency(config.threshold)
            if latency is not None:
                latencies.append(latency)
        latencies.sort()
        detected = len(latencies)
        rows.append(
            LatencyRow(
                scenario=scenario.name.replace("test-", ""),
                category=scenario.category,
                runs=repetitions,
                detected=detected,
                mean_latency=(sum(latencies) / detected) if detected else -1.0,
                p95_latency=(latencies[min(detected - 1,
                                           int(detected * 0.95))]
                             if detected else -1.0),
                max_latency=latencies[-1] if detected else -1.0,
            )
        )
    return LatencyProfileResult(rows=rows, threshold=config.threshold)


if __name__ == "__main__":
    print(run().render())
