"""Run any catalog scenario with full observability and export the record.

Example::

    python -m repro.tools.observe --list
    python -m repro.tools.observe --scenario test-ransom-only \\
        --trace-out trace.json --metrics-out metrics.json

    # not a replay: render the merged population registry of a finished
    # fleet run (ssd-insider.fleetrec/v1) through the same surfaces
    python -m repro.tools.observe --fleetrec results/FLEET.fleetrec \\
        --format prometheus --metrics-out fleet_metrics.json

The named Table I scenario (ransomware + background app, merged) is
replayed through a fully instrumented :class:`~repro.ssd.device.SimulatedSSD`:
per-request spans, detector slice events with the six feature values, GC
spans, recovery-queue pin/evict events, and — if the sample trips the
detector — the lockdown instant and (with ``--recover``) the rollback
span.  The Chrome-trace JSON opens at https://ui.perfetto.dev; the
metrics summary prints as Prometheus-style text and can be saved as JSON.

Exit status: 0 always (the point is the telemetry, not the verdict);
2 on bad arguments.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.nand.geometry import NandGeometry
from repro.obs import Observability
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD
from repro.workloads.catalog import scenarios_by_name


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.observe",
        description="Replay a Table I scenario through an instrumented "
                    "device; export a Perfetto trace and a metrics summary.",
    )
    parser.add_argument("--scenario", default="test-ransom-only",
                        help="catalog scenario name (see --list)")
    parser.add_argument("--fleetrec", metavar="FILE", default=None,
                        help="instead of replaying a scenario, read a "
                             "ssd-insider.fleetrec/v1 fleet file and "
                             "render its merged population registry "
                             "(honours --format/--metrics-out/"
                             "--no-summary)")
    parser.add_argument("--list", action="store_true",
                        help="list the catalog scenario names and exit")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration", type=float, default=30.0,
                        help="simulated seconds to replay (default 30)")
    parser.add_argument("--queue-capacity", type=int, default=20_000,
                        help="recovery-queue entries (Table III sizing)")
    parser.add_argument("--recover", action="store_true",
                        help="roll back (and record the rollback span) "
                             "if the alarm fires")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write the Chrome-trace JSON to FILE")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the metrics snapshot as JSON to FILE")
    parser.add_argument("--no-summary", action="store_true",
                        help="skip the text metrics summary on stdout")
    parser.add_argument("--max-events", type=int, default=None,
                        help="cap the number of recorded trace events")
    parser.add_argument("--format", choices=("text", "prometheus"),
                        default="text",
                        help="summary format: human-oriented text, or "
                             "strict Prometheus exposition (default text)")
    parser.add_argument("--snapshot-interval", type=float, default=None,
                        metavar="SIM_SECONDS",
                        help="record a registry snapshot of every counter/"
                             "gauge each SIM_SECONDS of simulated time "
                             "(included in --metrics-out)")
    return parser


def _cmd_fleetrec(args: argparse.Namespace) -> int:
    """Render a fleet file's merged registry through the observe surfaces.

    The registry is the deterministic index-order merge the fleet report
    uses (:func:`repro.fleet.report.aggregate_registry`), so its bytes —
    and the Prometheus exposition — are identical for any ``--shards``
    value the fleet ran with.
    """
    from repro.fleet.record import read_fleet_file
    from repro.fleet.report import aggregate_registry

    header, records = read_fleet_file(args.fleetrec)
    registry = aggregate_registry(records)
    verdicts: dict = {}
    for record in records:
        verdict = str(record.get("verdict", "clean"))
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
    print(f"fleet file: {args.fleetrec}")
    print(f"devices: {len(records)} "
          f"(plan seed {header.get('seed')}, "
          f"{header.get('duration')}s per device)")
    print(f"verdicts: {dict(sorted(verdicts.items()))}")
    if args.metrics_out is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(registry.render_json(indent=2))
        print(f"metrics -> {args.metrics_out}")
    if not args.no_summary:
        print()
        if args.format == "prometheus":
            print(registry.render_prometheus(), end="")
        else:
            print(registry.render_text())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Replay the scenario under observation; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    catalog = scenarios_by_name()
    if args.list:
        for name in sorted(catalog):
            print(name)
        return 0
    if args.fleetrec is not None:
        return _cmd_fleetrec(args)
    if args.scenario not in catalog:
        parser.error(f"unknown scenario {args.scenario!r} (try --list)")
    obs = Observability.on(max_events=args.max_events,
                           snapshot_interval=args.snapshot_interval)
    device = SimulatedSSD(
        SSDConfig(
            geometry=NandGeometry(channels=2, ways=4, blocks_per_chip=128,
                                  pages_per_block=64),
            queue_capacity=args.queue_capacity,
        ),
        obs=obs,
    )
    run = catalog[args.scenario].build(
        seed=args.seed,
        num_lbas=device.num_lbas,
        duration=args.duration,
    )
    for request in run.trace:
        device.submit(request)
    device.tick(run.duration)
    if device.alarm_raised and args.recover:
        report = device.recover()
        print(f"rollback: {report.mapping_updates} mapping updates")
    device.refresh_obs_metrics()

    print(f"scenario: {run.name} "
          f"(ransomware={run.ransomware or '-'}, {run.duration:.0f}s, "
          f"{len(run.trace)} requests)")
    print(f"alarm: {'RAISED' if device.alarm_raised or device.rollback_reports else 'no'}")
    print(f"trace events recorded: {len(obs.tracer.events)}"
          + (f" (+{obs.tracer.dropped} dropped)" if obs.tracer.dropped else ""))
    if args.snapshot_interval is not None:
        print(f"registry snapshots recorded: {len(obs.metrics.snapshots)}")
    if args.trace_out is not None:
        obs.tracer.write_chrome_trace(args.trace_out)
        print(f"trace -> {args.trace_out}")
    if args.metrics_out is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(obs.metrics.render_json(indent=2))
        print(f"metrics -> {args.metrics_out}")
    if not args.no_summary:
        print()
        if args.format == "prometheus":
            print(obs.metrics.render_prometheus(), end="")
        else:
            print(obs.metrics.render_text())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
