"""Compare benchmark reports and flag performance regressions.

Example::

    python -m repro.tools.benchdiff results/BENCH_old.json results/BENCH_new.json
    python -m repro.tools.benchdiff results/           # whole trajectory
    python -m repro.tools.benchdiff --trajectory       # results/trajectory/
    python -m repro.tools.benchdiff --trajectory perf/archive/
    python -m repro.tools.benchdiff old.json new.json --threshold 0.2

Two modes:

* **pair** — two ``BENCH_*.json`` files: every shared numeric metric is
  listed with its absolute and relative delta, and metrics with a known
  good direction (throughput up, latency down) are judged against the
  regression threshold;
* **trajectory** — one directory: every ``BENCH_*.json`` in it is
  ordered by its ``meta.created_unix`` stamp (file mtime as fallback)
  and the headline metrics are tabulated across the whole sequence; the
  regression judgement compares the last report against the one before
  it.

Reports stamped with different config hashes (``meta.config_hash``) are
still diffed — sometimes the config change *is* the point — but a
warning makes the apples-to-oranges comparison explicit.

Exit status: 0 when no judged metric regressed past the threshold, 1 on
regression, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import render_table

#: Metric-name suffixes where a larger value is an improvement.
HIGHER_BETTER = ("requests_per_sec", "slices_per_sec")

#: Metric-name suffixes where a smaller value is an improvement.
LOWER_BETTER = ("elapsed_s", "build_s", "p50_us", "p90_us", "p99_us",
                "max_us", "queue_update_pct_of_wall",
                "ftl_translate_pct_of_wall")

#: Default relative change treated as a regression (10%).
DEFAULT_THRESHOLD = 0.10

#: Headline metrics shown in trajectory mode.
TRAJECTORY_METRICS = (
    "detector.requests_per_sec",
    "detector.per_request.p99_us",
    "detector.per_request_steady.p99_us",
    "device.requests_per_sec",
    "device.per_request_steady.requests_per_sec",
    "device_profile.queue_update_pct_of_wall",
    "device_profile.ftl_translate_pct_of_wall",
    "scenario.requests_per_sec",
)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.benchdiff",
        description="Diff BENCH_*.json reports and flag regressions.",
    )
    parser.add_argument("inputs", nargs="*",
                        help="two report files, or one directory of "
                             "BENCH_*.json reports")
    parser.add_argument("--trajectory", nargs="?", metavar="DIR",
                        const="results/trajectory", default=None,
                        help="trajectory mode over DIR (default "
                             "results/trajectory, the archive every "
                             "'bench' run appends to)")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="relative change in the bad direction that "
                             "counts as a regression (default 0.10)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="also write the rendered diff to FILE")
    return parser


# -- metric extraction -------------------------------------------------------

def flatten_metrics(report: Dict[str, object]) -> Dict[str, float]:
    """Numeric leaves of ``report['paths']``, dotted-key flattened."""
    flat: Dict[str, float] = {}

    def walk(prefix: str, node: object) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(f"{prefix}.{key}" if prefix else str(key), value)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            flat[prefix] = float(node)

    walk("", report.get("paths", {}))
    return flat


def direction(metric: str) -> int:
    """+1 when higher is better, -1 when lower is better, 0 unjudged."""
    leaf = metric.rsplit(".", 1)[-1]
    if leaf in HIGHER_BETTER:
        return 1
    if leaf in LOWER_BETTER:
        return -1
    return 0


def judge(metric: str, old: float, new: float,
          threshold: float) -> Tuple[str, Optional[float]]:
    """Classify one metric's change; returns (verdict, relative_change).

    The relative change is signed toward "bigger means the metric grew";
    the verdict folds in the metric's good direction.
    """
    if old == 0:
        return ("n/a" if new == 0 else "new", None)
    relative = (new - old) / abs(old)
    sign = direction(metric)
    if sign == 0:
        return ("info", relative)
    bad = -relative * sign
    if bad > threshold:
        return ("REGRESSED", relative)
    if bad < -threshold:
        return ("improved", relative)
    return ("ok", relative)


def load_report(path: Path) -> Dict[str, object]:
    """Read one benchmark report, validating its schema."""
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    schema = report.get("schema", "") if isinstance(report, dict) else ""
    if not str(schema).startswith("ssd-insider.bench"):
        raise ValueError(f"{path} is not a bench report (schema {schema!r})")
    return report


def _describe(path: Path, report: Dict[str, object]) -> str:
    meta = report.get("meta", {}) or {}
    sha = meta.get("git_sha") or "no-sha"
    return f"{path.name} [{str(sha)[:12]}, config {meta.get('config_hash', '?')}]"


# -- pair mode ---------------------------------------------------------------

def diff_pair(
    old_path: Path, new_path: Path, threshold: float
) -> Tuple[List[str], int]:
    """Render the pairwise diff; returns (lines, regression count)."""
    old_report = load_report(old_path)
    new_report = load_report(new_path)
    lines = [
        f"baseline:  {_describe(old_path, old_report)}",
        f"candidate: {_describe(new_path, new_report)}",
    ]
    old_meta = old_report.get("meta", {}) or {}
    new_meta = new_report.get("meta", {}) or {}
    if (old_meta.get("config_hash") and new_meta.get("config_hash")
            and old_meta["config_hash"] != new_meta["config_hash"]):
        lines.append("WARNING: config hashes differ — the runs used "
                     "different benchmark parameters")
    if bool(old_report.get("smoke")) != bool(new_report.get("smoke")):
        lines.append("WARNING: comparing a --smoke run against a full run")
    old_metrics = flatten_metrics(old_report)
    new_metrics = flatten_metrics(new_report)
    shared = sorted(set(old_metrics) & set(new_metrics))
    if not shared:
        lines.append("no shared numeric metrics to compare")
        return lines, 0
    rows = []
    regressions = 0
    for metric in shared:
        old_value, new_value = old_metrics[metric], new_metrics[metric]
        verdict, relative = judge(metric, old_value, new_value, threshold)
        if verdict == "REGRESSED":
            regressions += 1
        rows.append((
            metric, f"{old_value:.4g}", f"{new_value:.4g}",
            f"{new_value - old_value:+.4g}",
            f"{relative:+.1%}" if relative is not None else "-",
            verdict,
        ))
    lines.append(render_table(
        ("metric", "baseline", "candidate", "delta", "rel", "verdict"), rows
    ))
    only_old = sorted(set(old_metrics) - set(new_metrics))
    only_new = sorted(set(new_metrics) - set(old_metrics))
    if only_old:
        lines.append(f"dropped metrics: {', '.join(only_old)}")
    if only_new:
        lines.append(f"new metrics: {', '.join(only_new)}")
    lines.append(
        f"{regressions} regression(s) past ±{threshold:.0%} on judged metrics"
    )
    return lines, regressions


# -- trajectory mode ---------------------------------------------------------

def diff_trajectory(
    directory: Path, threshold: float
) -> Tuple[List[str], int]:
    """Tabulate headline metrics across every report in ``directory``."""
    paths = sorted(directory.glob("BENCH_*.json"))
    if len(paths) < 2:
        raise ValueError(
            f"{directory} holds {len(paths)} BENCH_*.json report(s); "
            f"need at least 2 for a trajectory"
        )
    reports = [(path, load_report(path)) for path in paths]

    def stamp(item: Tuple[Path, Dict[str, object]]) -> float:
        meta = item[1].get("meta", {}) or {}
        created = meta.get("created_unix")
        if isinstance(created, (int, float)):
            return float(created)
        return item[0].stat().st_mtime

    reports.sort(key=stamp)
    lines = [f"trajectory of {len(reports)} reports in {directory}:"]
    metrics = [flatten_metrics(report) for _, report in reports]
    shown = [m for m in TRAJECTORY_METRICS
             if any(m in metric_set for metric_set in metrics)]
    rows = []
    for (path, report), metric_set in zip(reports, metrics):
        meta = report.get("meta", {}) or {}
        rows.append(
            [path.name, str(meta.get("git_sha") or "?")[:12]]
            + [f"{metric_set[m]:.4g}" if m in metric_set else "-"
               for m in shown]
        )
    lines.append(render_table(["report", "sha"] + shown, rows))
    lines.append("")
    lines.append("last step (previous -> latest):")
    pair_lines, regressions = diff_pair(
        reports[-2][0], reports[-1][0], threshold
    )
    lines.extend(pair_lines)
    return lines, regressions


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the diff; returns the exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.trajectory is not None:
            if args.inputs:
                print("error: --trajectory takes its directory as an "
                      "option value, not positional inputs")
                return 2
            directory = Path(args.trajectory)
            if not directory.is_dir():
                print(f"error: no trajectory directory at {directory} "
                      f"(every 'bench' run archives there by default)")
                return 2
            lines, regressions = diff_trajectory(directory, args.threshold)
        elif len(args.inputs) == 1:
            directory = Path(args.inputs[0])
            if not directory.is_dir():
                print("error: a single input must be a directory of "
                      "BENCH_*.json reports")
                return 2
            lines, regressions = diff_trajectory(directory, args.threshold)
        elif len(args.inputs) == 2:
            lines, regressions = diff_pair(
                Path(args.inputs[0]), Path(args.inputs[1]), args.threshold
            )
        else:
            print("error: pass two report files, one directory, or "
                  "--trajectory")
            return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    rendered = "\n".join(lines)
    print(rendered)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
