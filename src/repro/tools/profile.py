"""Layer-attributed profiling of the device path: where does the time go?

perfbench says how fast the device path runs end to end; this tool
says *why*.  It replays a scenario through a
:class:`~repro.ssd.device.SimulatedSSD` once plain and once with the
:class:`~repro.obs.prof.LayerProfiler` armed, then renders per-layer
inclusive/exclusive wall time, the call tree, and the profiler's
overhead measured as the armed/unarmed wall-time ratio — and writes the
``ssd-insider.profile/v2`` JSON report::

    python -m repro.tools.profile                       # golden scenario
    python -m repro.tools.profile --scenario test-ransom-only --top 15
    python -m repro.tools.profile --out results/PROFILE_device_path.json
    python -m repro.tools.profile --check               # CI gate

The device carries no observability bundle (no tracer, no metrics), so
both replays run the plain data path.  ``--check``
verifies the coverage invariant — per-layer exclusive times summing to
>= 95% of independently measured wall time — and exits non-zero when it
fails.

Exit status: 0 on success, 1 when ``--check`` fails, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter, time
from typing import Dict, List, Optional, Tuple

from repro.analysis.report import render_table
from repro.blockdev.request import IORequest
from repro.obs.prof import LayerProfiler, build_report
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD
from repro.workloads.catalog import testing_scenarios, training_scenarios
from repro.workloads.scenario import Scenario

#: Coverage floor asserted by ``--check``: attributed exclusive time must
#: account for at least this fraction of measured wall time.
COVERAGE_FLOOR = 0.95

#: The sentinel scenario name resolving to the golden attack scenario the
#: equivalence tests also replay.
GOLDEN = "golden"

#: Seed of the golden scenario replay.
GOLDEN_SEED = 20180706


def _catalog() -> Dict[str, Scenario]:
    return {s.name: s for s in training_scenarios() + testing_scenarios()}


def golden_scenario(duration: float = 60.0) -> Scenario:
    """The golden attack scenario (WannaCry over cloud storage)."""
    return Scenario("golden-cloudstorage-wannacry", ransomware="wannacry",
                    app="cloudstorage", category="heavy_overwrite",
                    duration=duration)


def report_meta(config: Dict[str, object]) -> Dict[str, object]:
    """Provenance stamped into every report: git SHA + config hash.

    The SHA maps a report onto a commit, and two reports are comparable
    only when their config hashes match.  Outside a git checkout the SHA
    is ``None`` (the report stays valid).
    """
    try:
        sha: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    return {
        "git_sha": sha,
        "config_hash": digest,
        "created_unix": round(time(), 3),
    }


#: Batch size for the profiled replay: large enough that the per-batch
#: slice/bookkeeping cost is noise, small enough that an alarm raised
#: mid-stream is dismissed promptly (``submit_batch`` stops at the
#: read-only *transition*, so dismissal still lands at the exact request
#: boundary where the per-request loop would have dismissed it).
REPLAY_BATCH = 512


def _replay(device: SimulatedSSD, requests, duration: float,
            dismiss_alarms: bool, batch_size: int) -> Tuple[int, int]:
    """Feed ``requests`` in ``batch_size`` chunks; returns (requests, alarms)."""
    submit_batch = device.submit_batch
    alarms = 0
    total = len(requests)
    index = 0
    while index < total:
        index += submit_batch(requests[index:index + batch_size])
        if dismiss_alarms and device.read_only:
            alarms += 1
            device.dismiss_alarm()
    device.tick(duration)
    return index, alarms


def profile_requests(
    requests,
    duration: float,
    name: str,
    config: Optional[SSDConfig] = None,
    dismiss_alarms: bool = True,
    ransomware: Optional[str] = None,
    batch_size: int = REPLAY_BATCH,
) -> Dict[str, object]:
    """Replay a request stream unarmed, then armed; returns the report.

    Each replay runs on a fresh device.  The first, with no profiler,
    gives the unarmed wall time; the second runs under an armed
    :class:`~repro.obs.prof.LayerProfiler`, and the report's overhead is
    the ratio of the two.  The armed replay sits inside a root
    ``replay`` section, so the driver loop's own cost lands in
    ``replay``'s *exclusive* time — a named layer like any other — and
    the per-layer exclusive sums partition the measured wall time (the
    >= 95% coverage invariant holds by construction rather than by luck).

    Requests are fed through :meth:`SimulatedSSD.submit_batch` in
    ``batch_size`` chunks, the way the fleet worker replays them.

    The cyclic garbage collector is paused for the measured regions
    (standard benchmark hygiene): its stop-the-world pauses land inside
    whichever ~2 µs layer happens to be open and smear milliseconds of
    collector time across unrelated layers.  Nothing the replay allocates
    per-operation is cyclic (backup entries are flat ``__slots__``
    records), so reference counting reclaims everything and the pause
    only defers collector housekeeping, never changes attribution
    semantics.
    """
    config = config or SSDConfig.small()
    device = SimulatedSSD(config)
    num_lbas = device.num_lbas
    remapped = [
        IORequest(time=request.time,
                  lba=request.lba % max(1, num_lbas - request.length),
                  mode=request.mode, length=request.length,
                  source=request.source)
        for request in requests
    ]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _replay(device, remapped, duration, dismiss_alarms, batch_size)
        unarmed_wall = perf_counter() - started
        device = SimulatedSSD(config)
        with LayerProfiler() as profiler:
            started = perf_counter()
            with profiler.section("replay"):
                executed, alarms = _replay(device, remapped, duration,
                                           dismiss_alarms, batch_size)
            wall = perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    context: Dict[str, object] = {
        "scenario": name,
        "ransomware": ransomware,
        "duration_s": duration,
        "requests": executed,
        "batch_size": batch_size,
        "device": {
            "num_lbas": num_lbas,
            "queue_capacity": device.ftl.queue.capacity,
            "gc_policy": device.ftl.gc_policy.as_dict(),
        },
        "alarms_dismissed": alarms,
        "host_writes": device.ftl.stats.host_writes,
        "gc_page_copies": device.ftl.stats.gc_page_copies,
        "nand_busy": device.nand.busy_breakdown.as_dict(),
        "nand_reliability": device.nand.reliability.as_dict(),
    }
    return build_report(profiler, wall, context=context,
                        meta=report_meta(context),
                        unarmed_wall_s=unarmed_wall)


def profile_device_replay(
    run,
    config: Optional[SSDConfig] = None,
    dismiss_alarms: bool = True,
) -> Dict[str, object]:
    """Profile a built catalog/golden scenario run (see ``run.trace``)."""
    return profile_requests(
        run.trace, duration=run.duration, name=run.name, config=config,
        dismiss_alarms=dismiss_alarms, ransomware=run.ransomware,
    )


# -- rendering ----------------------------------------------------------------

def render_layers(report: Dict[str, object], top: int = 10) -> str:
    """The top-N self-time table (exclusive time, descending)."""
    rows = []
    for row in report["layers"][:top]:
        rows.append((
            row["layer"],
            f"{row['calls']:,}",
            f"{row['inclusive_s'] * 1e3:10.1f}",
            f"{row['exclusive_s'] * 1e3:10.1f}",
            f"{row['exclusive_pct_of_wall']:5.1f}%",
        ))
    return render_table(
        ("layer", "calls", "incl ms", "excl ms", "% wall"), rows
    )


def render_tree(report: Dict[str, object], min_pct: float = 0.5) -> str:
    """Indented call-tree rendering, pruned below ``min_pct`` of wall."""
    wall = float(report["wall_time_s"]) or 1.0
    lines: List[str] = []

    def visit(node: Dict[str, object], depth: int) -> None:
        pct = 100.0 * float(node["inclusive_s"]) / wall
        if depth and pct < min_pct:
            return
        lines.append(
            f"{'  ' * depth}{node['name']:<{36 - 2 * depth}} "
            f"{float(node['inclusive_s']) * 1e3:10.1f} ms  "
            f"{pct:5.1f}%  x{node['calls']:,}"
        )
        for child in node["children"]:
            visit(child, depth + 1)

    for child in report["tree"]["children"]:
        visit(child, 0)
    return "\n".join(lines)


def render_overhead(report: Dict[str, object]) -> str:
    """One line: the measured armed-vs-unarmed cost of profiling."""
    overhead = report["overhead"]
    if overhead is None:
        return "profiler overhead: not measured (no unarmed replay)"
    return (
        f"profiler overhead: armed {float(report['wall_time_s']) * 1e3:.1f} ms "
        f"vs unarmed {float(overhead['unarmed_wall_s']) * 1e3:.1f} ms "
        f"({float(overhead['fraction_of_wall']) * 100:+.1f}%)"
    )


def render_report(report: Dict[str, object], top: int = 10) -> str:
    """The full human-facing rendering of one profile report."""
    context = report.get("context", {})
    coverage = report["coverage"]
    device = report["device_path"]
    parts = [
        f"profile: {context.get('scenario', '?')} "
        f"({context.get('requests', '?')} requests, "
        f"{context.get('duration_s', '?')}s simulated)",
        f"wall time: {float(report['wall_time_s']) * 1e3:.1f} ms, "
        f"attribution coverage {float(coverage['fraction_of_wall']) * 100:.1f}%",
        "",
        render_layers(report, top=top),
        "",
        "call tree (layers >= 0.5% of wall):",
        render_tree(report),
        "",
        f"device path: {float(device['fraction_of_wall']) * 100:.1f}% of "
        f"wall, top layers: {', '.join(device['top_layers']) or '-'}",
        render_overhead(report),
    ]
    nand = context.get("nand_busy")
    if nand:
        parts.append(
            f"simulated NAND busy: {nand['total_s']:.3f}s "
            f"(read {nand['page_read_s']:.3f}s, "
            f"program {nand['page_program_s']:.3f}s, "
            f"erase {nand['block_erase_s']:.3f}s)"
        )
    return "\n".join(parts)


# -- CLI ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.profile",
        description="Replay a scenario under the layer-attributed profiler "
                    "and report where device-path wall time goes.",
    )
    parser.add_argument("--scenario", default=GOLDEN,
                        help=f"catalog scenario name, or {GOLDEN!r} for the "
                             f"golden attack scenario (default)")
    parser.add_argument("--list", action="store_true",
                        help="list the catalog scenario names and exit")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--duration", type=float, default=60.0,
                        help="simulated seconds to replay (default 60)")
    parser.add_argument("--top", type=int, default=10,
                        help="rows in the self-time table (default 10)")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON report instead of the table")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="also write the JSON report to FILE")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) unless attribution coverage "
                             f">= {COVERAGE_FLOOR:.0%}")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Profile the scenario replay; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    catalog = _catalog()
    if args.list:
        print(GOLDEN)
        for name in sorted(catalog):
            print(name)
        return 0
    if args.scenario == GOLDEN:
        scenario = golden_scenario(duration=args.duration)
    elif args.scenario in catalog:
        scenario = catalog[args.scenario]
    else:
        parser.error(f"unknown scenario {args.scenario!r} (try --list)")
    run = scenario.build(seed=args.seed, duration=args.duration)
    report = profile_device_replay(run)
    if args.out is not None:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(report, indent=2) + "\n",
                            encoding="utf-8")
        print(f"report -> {out_path}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report, top=args.top))
    if args.check:
        coverage = float(report["coverage"]["fraction_of_wall"])
        if coverage < COVERAGE_FLOOR:
            print(f"CHECK FAILED: coverage {coverage:.1%} < "
                  f"{COVERAGE_FLOOR:.0%}", file=sys.stderr)
            return 1
        print(f"check passed: coverage {coverage:.1%} >= "
              f"{COVERAGE_FLOOR:.0%}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
