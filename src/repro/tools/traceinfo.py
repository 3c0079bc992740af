"""Summarise a trace file.

Example::

    python -m repro.tools.traceinfo attack.jsonl
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.analysis.report import render_sparkline, render_table
from repro.blockdev.trace import Trace
from repro.core.detector import RansomwareDetector
from repro.core.id3 import DecisionTree
from repro.ssd.timing import profile_trace


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.traceinfo",
        description="Print statistics of a block-I/O trace file.",
    )
    parser.add_argument("trace", help="JSON-lines trace path")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Print trace statistics; returns the exit code."""
    args = build_parser().parse_args(argv)
    trace = Trace.load(args.trace)
    stats = trace.stats()
    profile = profile_trace(trace)
    rows = [
        ("requests", stats.num_requests),
        ("reads / writes", f"{stats.num_reads} / {stats.num_writes}"),
        ("blocks read / written",
         f"{stats.blocks_read} / {stats.blocks_written}"),
        ("unique LBAs", stats.unique_lbas),
        ("time span", f"{stats.duration:.2f} s"),
        ("counting-table read-hit rate", f"{profile.read_hit_rate:.1%}"),
        ("overwrite rate (of writes)", f"{profile.overwrite_rate:.1%}"),
    ]
    print(render_table(("metric", "value"), rows))
    sources = trace.sources()
    if sources and set(sources) != {""}:
        print()
        print(render_table(
            ("source", "requests"),
            sorted(sources.items(), key=lambda item: -item[1]),
        ))
    owio_series = _owio_per_second(trace)
    if owio_series:
        print()
        print(f"OWIO/s  {render_sparkline(owio_series)}")
        print(f"        0s{' ' * 52}{stats.duration:.0f}s  "
              f"(peak {max(owio_series):.0f}/s)")
    return 0


def _owio_per_second(trace: Trace) -> list:
    """Per-slice overwrite counts (the OWIO feature), up to the last nonzero."""
    detector = RansomwareDetector(tree=DecisionTree.constant(0))
    for request in trace:
        detector.observe(request)
    # Close the slice holding the last request.
    detector.tick(trace.end_time + detector.config.slice_duration)
    series = [int(event.features.owio) for event in detector.events]
    while series and not series[-1]:
        series.pop()
    return series


if __name__ == "__main__":
    raise SystemExit(main())
