"""Fig. 2 — the six features capture ransomware's behaviour.

Reproduces the eight panels as numbers: the activity correlation of every
feature (2a/2c/2e/2g/2h pattern) and the cumulative ransomware-vs-benign
separation for the accumulable features (2b/2d/2f pattern).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.correlation import feature_activity_correlation
from repro.analysis.cumulative import CUMULATIVE_FEATURES, cumulative_feature_series
from repro.analysis.report import render_table
from repro.core.features import FEATURE_NAMES
from repro.rand import derive_seed
from repro.workloads.scenario import Scenario

CORRELATION_SAMPLES = ("wannacry", "mole", "jaff", "cryptoshield")
BENIGN_APPS = ("datawiping", "cloudstorage", "p2pdown", "compression")


@dataclass
class Fig2Result:
    """Per-feature correlations and cumulative end values."""

    #: feature -> sample -> pearson r
    correlations: Dict[str, Dict[str, float]]
    #: feature -> workload -> final cumulative value
    cumulative_totals: Dict[str, Dict[str, float]]
    duration: float

    def render(self) -> str:
        """Text rendering of the rows/series the paper reports."""
        lines = ["Fig. 2 (a/c/e/g/h) - feature vs active-time correlation"]
        headers = ("feature",) + CORRELATION_SAMPLES
        rows = []
        for feature in FEATURE_NAMES:
            per_sample = self.correlations[feature]
            rows.append(
                (feature,)
                + tuple(f"{per_sample[s]:+.3f}" for s in CORRELATION_SAMPLES)
            )
        lines.append(render_table(headers, rows))
        lines.append("")
        lines.append(
            f"Fig. 2 (b/d/f) - cumulative feature totals after {self.duration:.0f} s"
        )
        for feature in CUMULATIVE_FEATURES:
            lines.append(f"  [{feature}]")
            totals = sorted(
                self.cumulative_totals[feature].items(), key=lambda item: -item[1]
            )
            lines.append(render_table(("workload", "cumulative"), totals))
        return "\n".join(lines)

    def ransomware_lead(self, feature: str) -> float:
        """min(ransomware totals) / max(benign totals) for one feature.

        > 1 means every sample out-accumulates every benign app — the
        separation the cumulative panels exist to show.
        """
        totals = self.cumulative_totals[feature]
        ransom = [totals[s] for s in CORRELATION_SAMPLES if s in totals]
        benign = [totals[a] for a in BENIGN_APPS if a in totals]
        top_benign = max(benign) if benign else 0.0
        if top_benign == 0:
            return float("inf")
        return min(ransom) / top_benign


def run(seed: int = 0, duration: float = 45.0) -> Fig2Result:
    """Regenerate all Fig. 2 panels."""
    runs = {}
    for sample in CORRELATION_SAMPLES:
        scenario = Scenario(sample, ransomware=sample, onset=2.0)
        runs[sample] = scenario.build(
            seed=derive_seed(seed, "fig2", sample), duration=duration
        )
    for app in BENIGN_APPS:
        scenario = Scenario(app, app=app)
        runs[app] = scenario.build(
            seed=derive_seed(seed, "fig2", app), duration=duration
        )
    correlations: Dict[str, Dict[str, float]] = {}
    for feature in FEATURE_NAMES:
        correlations[feature] = {
            sample: feature_activity_correlation(runs[sample], feature).pearson
            for sample in CORRELATION_SAMPLES
        }
    cumulative_totals: Dict[str, Dict[str, float]] = {}
    for feature in CUMULATIVE_FEATURES:
        cumulative_totals[feature] = {}
        for name, scenario_run in runs.items():
            series = cumulative_feature_series(scenario_run, feature)
            cumulative_totals[feature][name] = series[-1] if series else 0.0
    return Fig2Result(
        correlations=correlations,
        cumulative_totals=cumulative_totals,
        duration=duration,
    )


if __name__ == "__main__":
    print(run().render())
