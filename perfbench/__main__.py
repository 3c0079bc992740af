"""Command line: run every workload, or compare two sets of runs.

    python -m perfbench run [--workload W ...] [--seed S] [--traced]
                            [--out FILE]
    python -m perfbench compare PARENT_DIR CHANGE_DIR

``run`` starts one fresh Python process per workload, one at a time, and
lets each print its metrics; ``--traced`` then runs every workload once
more under the layer tracer.  ``--out`` collects the run records into one
JSON file.  ``compare`` exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from perfbench.compare import compare, render
from perfbench.workloads import WORKLOADS, scratch_dir

RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"

#: Upper bound on one workload process (set-up and warm-up included).
RUN_TIMEOUT_S = 900


def run_all(args: argparse.Namespace) -> int:
    """Run the selected workloads, each in its own process."""
    names = args.workload or list(WORKLOADS)
    records = []
    with scratch_dir() as work:
        for trace in ((0, 1) if args.traced else (0,)):
            for name in names:
                out = Path(work) / f"{name}-{trace}.json"
                command = [sys.executable, str(RUN_SCRIPT), "--workload", name,
                           "--trace", str(trace), "--out", str(out)]
                if args.seed is not None:
                    command += ["--seed", str(args.seed)]
                subprocess.run(command, check=True, timeout=RUN_TIMEOUT_S)
                records.append(json.loads(out.read_text(encoding="utf-8")))
    if args.out is not None:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"schema": "perfbench.set/v1",
                                    "runs": records}, indent=1) + "\n",
                        encoding="utf-8")
    return 0 if all(record["correct"] for record in records) else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``run`` and ``compare`` sub-commands."""
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print metrics")
    run.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=None,
                     help="trace seed (default: each workload's own)")
    run.add_argument("--traced", action="store_true",
                     help="also run each workload under the layer tracer")
    run.add_argument("--out", default=None,
                     help="write all run records to this JSON file")
    diff = commands.add_parser("compare", help="compare two sets of runs")
    diff.add_argument("parent", type=Path, help="directory of parent runs")
    diff.add_argument("change", type=Path, help="directory of change runs")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch a sub-command; returns the exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return run_all(args)
    rows = compare(args.parent, args.change)
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
