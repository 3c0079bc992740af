"""Fig. 9 — GC cost: conventional SSD vs SSD-Insider.

The Insider FTL must relocate invalid pages the recovery queue still pins,
so garbage collection copies more pages.  The paper measured ~22 % extra
copies in the worst case (90 % space utilisation) and ~0 % extra at 70 %.
The reproduction replays each testing trace against both FTLs on identical
devices pre-filled to the target utilisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.report import render_table
from repro.blockdev.trace import Trace
from repro.ftl.conventional import ConventionalFTL
from repro.ftl.insider import InsiderFTL
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.rand import derive_seed
from repro.workloads.catalog import testing_scenarios


@dataclass
class Fig9Row:
    """One trace's GC page-copy counts under both FTLs."""

    trace: str
    conventional_copies: int
    insider_copies: int
    pinned_copies: int

    @property
    def overhead(self) -> float:
        """Extra copies of the Insider FTL relative to the baseline."""
        if self.conventional_copies == 0:
            return 0.0 if self.insider_copies == 0 else float("inf")
        return self.insider_copies / self.conventional_copies - 1.0


@dataclass
class Fig9Result:
    """All traces at one utilisation level."""

    utilization: float
    rows: List[Fig9Row]

    def render(self) -> str:
        """Text rendering of the rows/series the paper reports."""
        table_rows = [
            (
                row.trace,
                row.conventional_copies,
                row.insider_copies,
                row.pinned_copies,
                "n/a" if row.overhead == float("inf") else f"{row.overhead:+.1%}",
            )
            for row in self.rows
        ]
        total_conventional = sum(r.conventional_copies for r in self.rows)
        total_insider = sum(r.insider_copies for r in self.rows)
        overall = (
            total_insider / total_conventional - 1.0 if total_conventional else 0.0
        )
        return "\n".join(
            [
                f"Fig. 9 - GC page copies at {self.utilization:.0%} utilisation",
                render_table(
                    ("trace", "conventional", "ssd-insider", "pinned copies",
                     "overhead"),
                    table_rows,
                ),
                f"aggregate extra copies: {overall:+.1%} "
                f"(paper: ~+22% at 90%, ~0% at 70%)",
            ]
        )


def replay(
    trace: Trace,
    ftl,
    prefill_lbas: int,
) -> None:
    """Pre-fill the device and push every trace block through the FTL.

    Prefill writes carry an ancient timestamp so their recovery-queue
    entries are already outside the retention window when the trace
    starts — the pre-existing data is "old and safe", exactly the state a
    long-running device would be in.
    """
    for lba in range(prefill_lbas):
        ftl.write(lba, timestamp=-1e6)
    baseline = ftl.stats.snapshot()
    ftl.stats.gc_page_copies -= baseline.gc_page_copies
    ftl.stats.gc_pinned_copies -= baseline.gc_pinned_copies
    ftl.stats.erases -= baseline.erases
    ftl.stats.gc_runs -= baseline.gc_runs
    offset = 1.0  # keep trace timestamps after the prefill
    for request in trace:
        for unit in request.split():
            lba = unit.lba % ftl.num_lbas
            if unit.is_read:
                if ftl.mapping.is_mapped(lba):
                    ftl.read(lba, unit.time + offset)
            else:
                ftl.write(lba, unit.time + offset)


def run(
    utilization: float = 0.9,
    seed: int = 0,
    duration: float = 45.0,
    geometry: Optional[NandGeometry] = None,
    scenarios=None,
) -> Fig9Result:
    """Replay the testing traces against both FTLs."""
    geometry = geometry or NandGeometry(
        channels=2, ways=4, blocks_per_chip=128, pages_per_block=64
    )
    rows: List[Fig9Row] = []
    chosen = list(scenarios) if scenarios is not None else testing_scenarios()
    for scenario in chosen:
        num_lbas = int(geometry.pages_total * (1.0 - 0.125))
        run_seed = derive_seed(seed, "fig9", scenario.name)
        scenario_run = scenario.build(
            seed=run_seed, num_lbas=num_lbas, duration=duration
        )
        prefill = int(num_lbas * utilization)
        conventional = ConventionalFTL(NandArray(geometry))
        replay(scenario_run.trace, conventional, prefill)
        # Provision the recovery queue at the paper's ratio: Table III's
        # 2,621,440 x 4-KB entries are ~2% of the 512-GB prototype, so the
        # pinned old versions raise effective utilisation by at most ~2
        # points — which is what keeps the worst-case GC overhead near the
        # paper's +22% instead of exploding as the device fills.
        queue_capacity = max(1, int(geometry.pages_total * 0.02))
        insider = InsiderFTL(NandArray(geometry), queue_capacity=queue_capacity)
        replay(scenario_run.trace, insider, prefill)
        rows.append(
            Fig9Row(
                trace=scenario.name.replace("test-", ""),
                conventional_copies=conventional.stats.gc_page_copies,
                insider_copies=insider.stats.gc_page_copies,
                pinned_copies=insider.stats.gc_pinned_copies,
            )
        )
    return Fig9Result(utilization=utilization, rows=rows)


if __name__ == "__main__":
    print(run().render())
