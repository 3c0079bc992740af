"""Fig. 1 — ransomware's overwriting behaviour.

(a) The longer a sample is active within a slice, the more overwrites the
slice shows (WannaCry, Mole).  (b) Cumulative overwrite counts: the four
ransomware curves grow much faster than every normal application except
data wiping, with Jaff/CryptoShield near the cloud-storage/P2P range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.correlation import CorrelationResult, feature_activity_correlation
from repro.analysis.cumulative import cumulative_feature_series
from repro.analysis.report import render_table
from repro.rand import derive_seed
from repro.workloads.scenario import Scenario

#: Fig. 1a samples.
CORRELATION_SAMPLES = ("wannacry", "mole")
#: Fig. 1b line sets.
CUMULATIVE_RANSOMWARE = ("wannacry", "jaff", "mole", "cryptoshield")
CUMULATIVE_APPS = ("datawiping", "p2pdown", "cloudstorage", "compression")


@dataclass
class Fig1Result:
    """Correlations (a) and final cumulative overwrite counts (b)."""

    correlations: Dict[str, CorrelationResult]
    cumulative: Dict[str, List[float]]
    duration: float

    def render(self) -> str:
        """Text rendering of the rows/series the paper reports."""
        lines = ["Fig. 1(a) - OWIO vs ransomware active time (per 1 s slice)"]
        rows = [
            (name, f"{result.pearson:+.3f}")
            for name, result in sorted(self.correlations.items())
        ]
        lines.append(render_table(("sample", "pearson r"), rows))
        lines.append("")
        lines.append(f"Fig. 1(b) - cumulative overwrites after {self.duration:.0f} s")
        totals = sorted(
            ((name, series[-1] if series else 0.0) for name, series in self.cumulative.items()),
            key=lambda item: -item[1],
        )
        lines.append(render_table(("workload", "cumulative OWIO"), totals))
        return "\n".join(lines)


def run(seed: int = 0, duration: float = 45.0) -> Fig1Result:
    """Regenerate both Fig. 1 panels."""
    correlations = {}
    for sample in CORRELATION_SAMPLES:
        scenario = Scenario(f"fig1a-{sample}", ransomware=sample, onset=2.0)
        scenario_run = scenario.build(
            seed=derive_seed(seed, "fig1a", sample), duration=duration
        )
        correlations[sample] = feature_activity_correlation(scenario_run, "owio")
    cumulative = {}
    for sample in CUMULATIVE_RANSOMWARE:
        scenario = Scenario(f"{sample}", ransomware=sample, onset=2.0)
        scenario_run = scenario.build(
            seed=derive_seed(seed, "fig1b", sample), duration=duration
        )
        cumulative[sample] = cumulative_feature_series(scenario_run, "owio")
    for app in CUMULATIVE_APPS:
        scenario = Scenario(f"{app}", app=app)
        scenario_run = scenario.build(
            seed=derive_seed(seed, "fig1b", app), duration=duration
        )
        cumulative[app] = cumulative_feature_series(scenario_run, "owio")
    return Fig1Result(
        correlations=correlations, cumulative=cumulative, duration=duration
    )


if __name__ == "__main__":
    print(run().render())
