"""Table III — DRAM required by SSD-Insider's data structures.

The paper provisions 250 000 hash entries (42 B), 1 000 counting-table
entries (12 B) and 2 621 440 recovery-queue entries (12 B): 40.03 MB total,
affordable next to a modern SSD's >= 1 GB DRAM.  The reproduction prints
the same rows and additionally reports the *measured* peak populations of
the live structures under the heaviest testing trace, confirming the
provisioning covers them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.report import render_table
from repro.core.config import DetectorConfig
from repro.core.detector import RansomwareDetector
from repro.core.id3 import DecisionTree
from repro.core.memory import MemoryBudget, paper_memory_budget
from repro.rand import derive_seed
from repro.units import MIB
from repro.workloads.scenario import Scenario


@dataclass
class Table3Result:
    """The provisioned budget plus measured peaks."""

    budget: MemoryBudget
    measured_peak_hash: int
    measured_peak_entries: int

    def render(self) -> str:
        """Text rendering of the rows/series the paper reports."""
        rows = [
            (name, f"{unit} Bytes", f"{entries:,}", f"{mb:.2f} MB")
            for name, unit, entries, mb in self.budget.rows()
        ]
        return "\n".join(
            [
                "Table III - DRAM requirements for SSD-Insider",
                render_table(
                    ("data structure", "unit size", "# of entries", "DRAM size"),
                    rows,
                ),
                f"total: {self.budget.total_bytes / MIB:.2f} MB "
                f"(paper: 40.03 MB)",
                f"measured peaks under the heaviest testing trace: "
                f"{self.measured_peak_hash:,} hash entries, "
                f"{self.measured_peak_entries:,} counting entries",
            ]
        )


def run(seed: int = 0, duration: float = 30.0,
        config: Optional[DetectorConfig] = None) -> Table3Result:
    """Print the paper's budget and measure live structure peaks."""
    scenario = Scenario("table3-probe", ransomware="wannacry", app="iometer",
                        onset=5.0)
    scenario_run = scenario.build(
        seed=derive_seed(seed, "table3"), duration=duration
    )
    detector = RansomwareDetector(tree=DecisionTree.constant(0),
                                  config=config, keep_history=False)
    table = detector.table
    peak_hash = peak_entries = 0
    for request in scenario_run.trace:
        detector.observe(request)
        peak_hash = max(peak_hash, table.hash_entries)
        peak_entries = max(peak_entries, len(table))
    return Table3Result(
        budget=paper_memory_budget(),
        measured_peak_hash=peak_hash,
        measured_peak_entries=peak_entries,
    )


if __name__ == "__main__":
    print(run().render())
