"""Compare two sets of runs, metric by metric, under the benchmark's bounds.

``python -m perfbench compare A/ B/`` reads every run record (``*.json``,
as written by ``run.py --out`` or ``python -m perfbench run --out``) in
the two directories, with A the parent and B the change, and prints one
row per workload and end-to-end metric: each side's median and quartiles
and a verdict.

* **improved**: B wins at least 9 of 10 pairs (runs paired in file order)
  and the medians differ by more than A's interquartile range;
* **regressed**: B's median is worse than A's by more than the bound;
* **unresolved**: either side's spread (IQR / median) exceeds the bound,
  unless every B run is better than every A run and the gain holds;
* **no change** otherwise.

A gain does not count when operations fail: if any of B's runs of a
workload is incorrect or failed an operation, every row of that workload
reads **regressed**.  So does a workload with runs on one side only (its
run on the other side crashed or was never made).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.metrics import END_TO_END, Metric

#: Share of pairs the change must win for a gain.
WIN_SHARE = 0.9


def load_runs(directory: Path) -> Dict[str, List[dict]]:
    """Untraced run records in ``directory``, by workload, in file order."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        for record in payload.get("runs", [payload]):
            if record.get("schema") == "perfbench.run/v1" and not record["traced"]:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) by the inclusive method.

    With five runs a side, the default (exclusive) method puts each
    quartile halfway to the extreme value, so one run caught in a host
    slowdown would set the spread; the inclusive quartiles of five runs
    are the second and fourth values.
    """
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(metric: Metric, parent: Sequence[float],
            change: Sequence[float]) -> str:
    """The comparison verdict for one workload x metric."""
    sign = 1.0 if metric.better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(parent)
    b_q1, b_med, b_q3 = quartiles(change)
    gain = sign * (b_med - a_med)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    improved = wins >= WIN_SHARE * len(pairs) and gain > a_q3 - a_q1
    spread = max(_relative(a_q3 - a_q1, a_med), _relative(b_q3 - b_q1, b_med))
    if spread > metric.bound:
        every_run_better = (min(sign * b for b in change)
                            > max(sign * a for a in parent))
        return "improved" if improved and every_run_better else "unresolved"
    if improved:
        return "improved"
    if -gain > metric.bound * abs(a_med):
        return "regressed"
    return "no change"


def _relative(width: float, median: float) -> float:
    if median == 0:
        return 0.0 if width == 0 else float("inf")
    return width / abs(median)


def failed_runs(runs: Sequence[dict]) -> int:
    """How many of ``runs`` are incorrect or failed an operation."""
    return sum(1 for r in runs if not r["correct"] or r["failed"] > 0)


def compare(parent_dir: Path, change_dir: Path) -> List[Dict[str, object]]:
    """One row per workload x end-to-end metric, plus one per workload
    that has runs on one side only."""
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    rows: List[Dict[str, object]] = []
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            missing = "change" if workload not in change else "parent"
            rows.append({
                "workload": workload, "metric": "-", "unit": "",
                "parent": None, "change": None,
                "runs": (len(parent.get(workload, ())),
                         len(change.get(workload, ()))),
                "verdict": "regressed", "note": f"no {missing} runs",
            })
            continue
        failed = failed_runs(change[workload])
        for metric in END_TO_END:
            a = [r["metrics"][metric.name]["value"] for r in parent[workload]
                 if metric.name in r["metrics"]]
            b = [r["metrics"][metric.name]["value"] for r in change[workload]
                 if metric.name in r["metrics"]]
            if not a or not b:
                continue
            row = {
                "workload": workload, "metric": metric.name,
                "unit": metric.unit, "parent": quartiles(a),
                "change": quartiles(b), "runs": (len(a), len(b)),
                "verdict": verdict(metric, a, b), "note": "",
            }
            if failed:
                row["verdict"] = "regressed"
                row["note"] = f"{failed} change runs failed"
            rows.append(row)
    return rows


def _cell(quartile: Optional[Tuple[float, float, float]]) -> str:
    if quartile is None:
        return "-"
    q1, median, q3 = quartile
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def render(rows: List[Dict[str, object]]) -> str:
    """The comparison table: median [q1, q3] per side, delta, verdict."""
    lines = [f"{'workload':15} {'metric':16} {'unit':6} {'parent':>30} "
             f"{'change':>30} {'delta':>8}  verdict"]
    for row in rows:
        delta = ""
        if row["parent"] is not None and row["parent"][1]:
            parent_median, change_median = row["parent"][1], row["change"][1]
            delta = f"{100.0 * (change_median - parent_median) / parent_median:+7.2f}%"
        verdict_text = row["verdict"]
        if row["note"]:
            verdict_text += f" ({row['note']})"
        lines.append(
            f"{row['workload']:15} {row['metric']:16} {row['unit']:6} "
            f"{_cell(row['parent']):>30} {_cell(row['change']):>30} "
            f"{delta:>8}  {verdict_text}")
    return "\n".join(lines)
