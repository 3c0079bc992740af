"""Window/threshold ablation: why 10 slices and a threshold of 3?

The paper fixes N = 10 slices and threshold 3 (§III-B, §V-B).  This sweep
retrains and re-evaluates at other operating points, exposing the
trade-off the choice sits on: short windows alarm faster but lose the
PWIO accumulation that catches slow samples; high thresholds suppress
false alarms but delay (or miss) detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.report import render_table
from repro.core.config import DetectorConfig
from repro.rand import derive_seed
from repro.train.evaluate import evaluate_run
from repro.train.trainer import train_from_scenarios
from repro.workloads.catalog import testing_scenarios, training_scenarios


@dataclass
class WindowRow:
    """One (window, threshold) operating point."""

    window_slices: int
    threshold: int
    missed: int
    runs: int
    false_alarms: int
    benign_runs: int
    mean_latency: float

    @property
    def frr(self) -> float:
        """Missed-detection rate."""
        return self.missed / self.runs if self.runs else 0.0

    @property
    def far(self) -> float:
        """False-alarm rate on the benign variants."""
        return self.false_alarms / self.benign_runs if self.benign_runs else 0.0


@dataclass
class WindowAblationResult:
    """The full sweep."""

    rows: List[WindowRow]

    def render(self) -> str:
        """Text rendering of the rows/series the paper reports."""
        table_rows = [
            (row.window_slices, row.threshold, f"{row.far:.0%}",
             f"{row.frr:.0%}",
             f"{row.mean_latency:.1f} s" if row.mean_latency >= 0 else "-")
            for row in self.rows
        ]
        return "\n".join(
            [
                "Window/threshold ablation over the testing matrix",
                render_table(
                    ("window N", "threshold", "FAR", "FRR", "mean latency"),
                    table_rows,
                ),
            ]
        )

    def row(self, window_slices: int, threshold: int) -> WindowRow:
        """Find one operating point."""
        for candidate in self.rows:
            if (candidate.window_slices == window_slices
                    and candidate.threshold == threshold):
                return candidate
        raise KeyError((window_slices, threshold))


def run(
    windows: Sequence[int] = (5, 10, 15),
    thresholds: Sequence[int] = (2, 3, 5),
    seed: int = 0,
    duration: float = 60.0,
    repetitions: int = 2,
    runs_per_scenario: int = 2,
) -> WindowAblationResult:
    """Sweep operating points; the detector is retrained per window size
    (the features themselves depend on N)."""
    rows: List[WindowRow] = []
    for window in windows:
        train_config = DetectorConfig(window_slices=window,
                                      threshold=min(3, window))
        tree = train_from_scenarios(
            training_scenarios(), seed=seed, duration=duration,
            runs_per_scenario=runs_per_scenario, config=train_config,
        )
        for threshold in thresholds:
            if threshold > window:
                continue
            config = DetectorConfig(window_slices=window, threshold=threshold)
            missed = false_alarms = runs = benign_runs = 0
            latencies: List[float] = []
            for scenario in testing_scenarios():
                for repetition in range(repetitions):
                    run_seed = derive_seed(seed, "window-ablation",
                                           scenario.name, str(repetition))
                    attack_run = scenario.build(seed=run_seed,
                                                duration=duration)
                    outcome = evaluate_run(attack_run, tree, config)
                    runs += 1
                    latency = outcome.detection_latency(threshold)
                    if latency is None:
                        missed += 1
                    else:
                        latencies.append(latency)
                    if scenario.app is not None:
                        benign = scenario.build(
                            seed=run_seed, duration=duration,
                            include_ransomware=False,
                        )
                        benign_runs += 1
                        if evaluate_run(benign, tree, config).alarmed_at(
                                threshold):
                            false_alarms += 1
            rows.append(
                WindowRow(
                    window_slices=window,
                    threshold=threshold,
                    missed=missed,
                    runs=runs,
                    false_alarms=false_alarms,
                    benign_runs=benign_runs,
                    mean_latency=(sum(latencies) / len(latencies)
                                  if latencies else -1.0),
                )
            )
    return WindowAblationResult(rows=rows)


if __name__ == "__main__":
    print(run().render())
