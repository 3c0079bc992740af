"""Fig. 8 — per-operation software latency: baseline FTL vs +SSD-Insider.

The paper measured, on a 1.2-GHz core, 477 ns / 1372 ns of FTL code per
4-KB read/write and an extra 147 ns / 254 ns for SSD-Insider's
detection/recovery bookkeeping — negligible against 50/500 µs NAND
latencies.  The reproduction drives the analytic cost model with each
testing trace's measured behaviour (counting-table hit rate, overwrite
rate), so the per-trace bars vary with workload just as the figure's do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.report import render_table
from repro.rand import derive_seed
from repro.ssd.timing import LatencyModel, profile_trace
from repro.workloads.catalog import testing_scenarios


@dataclass
class Fig8Row:
    """One trace's latency decomposition (nanoseconds)."""

    trace: str
    ftl_read_ns: float
    insider_read_ns: float
    ftl_write_ns: float
    insider_write_ns: float
    read_share: float
    write_share: float


@dataclass
class Fig8Result:
    """All traces plus the cross-trace averages."""

    rows: List[Fig8Row]
    avg_insider_read_ns: float
    avg_insider_write_ns: float

    def render(self) -> str:
        """Text rendering of the rows/series the paper reports."""
        table_rows = [
            (
                row.trace,
                f"{row.ftl_read_ns:.0f}",
                f"+{row.insider_read_ns:.0f}",
                f"{row.ftl_write_ns:.0f}",
                f"+{row.insider_write_ns:.0f}",
                f"{row.read_share:.2%}",
                f"{row.write_share:.2%}",
            )
            for row in self.rows
        ]
        return "\n".join(
            [
                "Fig. 8 - software elapsed time per 4-KB op (ns), and the insider",
                "overhead's share of the full I/O including NAND latency:",
                render_table(
                    ("trace", "FTL rd", "insider rd", "FTL wr", "insider wr",
                     "rd share", "wr share"),
                    table_rows,
                ),
                f"average insider overhead: {self.avg_insider_read_ns:.0f} ns reads, "
                f"{self.avg_insider_write_ns:.0f} ns writes "
                f"(paper: 147 ns / 254 ns)",
            ]
        )


def run(seed: int = 0, duration: float = 40.0,
        model: Optional[LatencyModel] = None) -> Fig8Result:
    """Profile every testing trace through the latency model."""
    model = model or LatencyModel()
    rows: List[Fig8Row] = []
    for scenario in testing_scenarios():
        run_seed = derive_seed(seed, "fig8", scenario.name)
        scenario_run = scenario.build(seed=run_seed, duration=duration)
        profile = profile_trace(scenario_run.trace)
        rows.append(
            Fig8Row(
                trace=scenario.name.replace("test-", ""),
                ftl_read_ns=model.ftl_read_ns(),
                insider_read_ns=model.insider_read_ns(profile),
                ftl_write_ns=model.ftl_write_ns(),
                insider_write_ns=model.insider_write_ns(profile),
                read_share=model.insider_read_share(profile),
                write_share=model.insider_write_share(profile),
            )
        )
    avg_read = sum(r.insider_read_ns for r in rows) / len(rows)
    avg_write = sum(r.insider_write_ns for r in rows) / len(rows)
    return Fig8Result(rows=rows, avg_insider_read_ns=avg_read,
                      avg_insider_write_ns=avg_write)


if __name__ == "__main__":
    print(run().render())
