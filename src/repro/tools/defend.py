"""Run a full defense scenario from the command line.

Example::

    python -m repro.tools.defend --sample wannacry --seed 7
    python -m repro.tools.defend --sample jaff --no-recover
    python -m repro.tools.defend --trace-out trace.json --metrics metrics.json

Exit status: 0 on perfect recovery (or no-recover audit), 3 when the
sample was missed, 4 when recovery lost data.

``--trace-out`` records the run with the event tracer and writes a
Chrome-trace JSON (open at https://ui.perfetto.dev); ``--metrics`` writes
the metrics-registry snapshot as JSON; ``--forensics-out`` arms the
flight recorder.  Any of these flags turns observability on; without them
the run is un-instrumented and behaves exactly as before.  ``--profile``
arms the layer profiler around the run (which adds no observability
bundle, so it profiles the plain data path) and writes the wall-time
attribution report.
"""

from __future__ import annotations

import argparse
from contextlib import ExitStack
from time import perf_counter
from typing import List, Optional

from repro.nand.geometry import NandGeometry
from repro.obs import Observability
from repro.obs.flightrec import FlightRecorder
from repro.obs.prof import LayerProfiler, build_report
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD
from repro.ssd.harness import run_defense
from repro.ssd.smart import smart_report
from repro.workloads.ransomware.profiles import RANSOMWARE_PROFILES


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.defend",
        description="Attack a simulated SSD-Insider device and report the "
                    "defense outcome.",
    )
    parser.add_argument("--sample", default="wannacry",
                        choices=sorted(RANSOMWARE_PROFILES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--user-blocks", type=int, default=15_000,
                        help="user data blocks to protect (default 15000)")
    parser.add_argument("--queue-capacity", type=int, default=20_000,
                        help="recovery-queue entries (Table III sizing)")
    parser.add_argument("--no-recover", action="store_true",
                        help="skip the rollback and audit the damage")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="record the run and write a Chrome-trace JSON "
                             "(open in Perfetto) to FILE")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="write the metrics-registry snapshot as JSON "
                             "to FILE")
    parser.add_argument("--forensics-out", metavar="FILE", default=None,
                        help="arm the flight recorder and write the "
                             "incident bundle(s) to FILE (render with "
                             "python -m repro.tools.forensics)")
    parser.add_argument("--profile", metavar="FILE", default=None,
                        help="arm the layer profiler and write the "
                             "ssd-insider.profile/v2 report to FILE (render "
                             "with python -m repro.tools.profile)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the defense cycle; returns the exit code."""
    args = build_parser().parse_args(argv)
    observe = (args.trace_out is not None or args.metrics is not None
               or args.forensics_out is not None)
    flight = (FlightRecorder() if args.forensics_out is not None
              else None)
    obs = Observability.on(flight=flight) if observe else None
    device = SimulatedSSD(
        SSDConfig(
            geometry=NandGeometry(channels=2, ways=4, blocks_per_chip=128,
                                  pages_per_block=64),
            queue_capacity=args.queue_capacity,
        ),
        obs=obs,
    )
    profiler = LayerProfiler() if args.profile is not None else None
    with ExitStack() as armed:
        if profiler is not None:
            armed.enter_context(profiler)
            armed.enter_context(profiler.section("replay"))
        started = perf_counter()
        outcome = run_defense(
            device,
            sample=args.sample,
            user_blocks=args.user_blocks,
            seed=args.seed,
            recover=not args.no_recover,
        )
    wall = perf_counter() - started
    print(f"sample: {outcome.sample}")
    if outcome.alarm_raised:
        print(f"ALARM after {outcome.detection_latency:.1f}s "
              f"({outcome.attack_requests_served} attack requests served, "
              f"{outcome.dropped_writes} writes dropped by lockdown)")
    else:
        print("sample was NOT detected")
    if outcome.rollback is not None:
        print(f"rollback: {outcome.rollback.mapping_updates} mapping updates")
    print(f"audit: {outcome.blocks_corrupted}/{outcome.blocks_audited} "
          f"blocks corrupted ({outcome.data_loss_rate:.1%} loss)")
    smart = smart_report(device)
    print(f"SMART: {dict(sorted(smart.items()))}")
    if obs is not None:
        device.refresh_obs_metrics()
        if args.trace_out is not None:
            obs.tracer.write_chrome_trace(args.trace_out)
            print(f"trace: {len(obs.tracer.events)} events -> "
                  f"{args.trace_out}")
        if args.metrics is not None:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(obs.metrics.render_json(indent=2))
            print(f"metrics: {len(obs.metrics)} families -> {args.metrics}")
        if args.forensics_out is not None:
            import json

            bundles = list(device.incidents)
            if not bundles:
                # No alarm fired — freeze the black box anyway so the
                # near-misses and feature timelines are inspectable.
                bundles = [device.snapshot_incident("run_end")]
            payload = bundles[0] if len(bundles) == 1 else bundles
            with open(args.forensics_out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
            print(f"forensics: {len(bundles)} incident bundle(s) -> "
                  f"{args.forensics_out}")
    if args.profile is not None:
        import json

        report = build_report(
            profiler, wall,
            context={
                "scenario": f"defend-{args.sample}",
                "ransomware": args.sample,
                "seed": args.seed,
                "user_blocks": args.user_blocks,
                "alarm_raised": outcome.alarm_raised,
                "nand_busy": device.nand.busy_breakdown.as_dict(),
            },
        )
        with open(args.profile, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        coverage = report["coverage"]["fraction_of_wall"]
        print(f"profile: {coverage:.1%} of wall attributed -> "
              f"{args.profile}")
    if not outcome.alarm_raised:
        return 3
    if not args.no_recover and outcome.blocks_corrupted > 0:
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
