"""Hot-path benchmark harness: replay synthetic mixes, emit BENCH_hotpath.json.

The detector runs inside firmware on every request header, so the
counting-table/window pipeline is the single most-executed path in the
repo.  This harness measures it three ways:

* **detector** — bare :class:`~repro.core.detector.RansomwareDetector`
  over a synthetic ransomware/background mix (1M requests by default)
  containing a long idle gap, so the fast-forward path is exercised;
* **device** — the same stream through :class:`~repro.ssd.device.SimulatedSSD`
  (detector + Insider FTL + NAND timing), benign variant so the device
  never locks read-only mid-measurement;
* **scenario** — a full Table-I-style catalog scenario (workload
  generators, stream merging, device, alarm) end to end.

It times the production code only; that the optimised detector
bit-matches the naive reference (``tests/oracles/reference.py``) is
enforced by the test suite (``tests/test_hotpath_equivalence.py``), not
here.  Results land in ``BENCH_hotpath.json``::

    python -m repro.tools.bench --smoke          # CI-sized, no timing claims
    python -m repro.tools.bench                  # full 1M-request run
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.blockdev.request import IOMode, IORequest
from repro.core.config import DetectorConfig
from repro.core.detector import RansomwareDetector

#: Synthetic-mix layout (fractions of the request budget).
BACKGROUND_BEFORE = 0.55
RANSOMWARE_SHARE = 0.25

GOLDEN_SEED = 20180706


# -- synthetic trace ---------------------------------------------------------

def synthesize_mix(
    num_requests: int,
    gap_seconds: float,
    seed: int,
    num_lbas: int = 400_000,
    include_ransomware: bool = True,
) -> List[IORequest]:
    """Build a background/ransomware mix with one long idle gap.

    Layout: background traffic, then (optionally) a ransomware
    read-then-overwrite sweep laid over it, then the idle gap, then a
    closing background burst — so the detector sees activity, an alarm-worthy
    episode, a dead-quiet stretch (the fast-forward case), and a restart.

    Half the background traffic hits a roving 64-LBA hot set (exercising
    run extension/merge) and half is cold-random over a wide region, which
    keeps tens of thousands of short runs live inside the 10-slice expiry
    horizon — the population the counting table must retire every slice.
    """
    rng = random.Random(seed)
    requests: List[IORequest] = []
    app_region = max(2, int(num_lbas * 0.55))
    ransom_base = app_region

    n_before = int(num_requests * BACKGROUND_BEFORE)
    n_ransom = int(num_requests * RANSOMWARE_SHARE) if include_ransomware else 0
    n_after = num_requests - n_before - n_ransom

    t = 0.0

    def background(count: int, start: float) -> float:
        clock = start
        hot = rng.randrange(0, max(1, app_region - 64))
        for i in range(count):
            # ~40k IOPS mean interarrival: unremarkable for a real SSD, and
            # dense enough that each 1 s slice carries a realistic request
            # population for the counting table to expire.
            clock += rng.uniform(0.00001, 0.00004)
            if i % 256 == 0:
                hot = rng.randrange(0, max(1, app_region - 64))
            lba = hot + rng.randrange(0, 64) if rng.random() < 0.5 else (
                rng.randrange(0, app_region))
            mode = IOMode.READ if rng.random() < 0.6 else IOMode.WRITE
            length = 1 if rng.random() < 0.8 else rng.randrange(2, 9)
            requests.append(IORequest(time=clock, lba=lba, mode=mode,
                                      length=length, source="background"))
        return clock

    t = background(n_before, t)

    if n_ransom:
        # Read-encrypt-overwrite sweep through its own region: the classic
        # in-place pattern the counting table exists to catch.
        victim = ransom_base
        produced = 0
        while produced < n_ransom:
            t += rng.uniform(0.0001, 0.0004)
            run = min(rng.randrange(4, 17), max(1, (n_ransom - produced) // 2))
            for offset in range(run):
                lba = victim + offset
                requests.append(IORequest(time=t, lba=lba, mode=IOMode.READ,
                                          source="ransomware"))
            t += rng.uniform(0.0002, 0.0008)
            for offset in range(run):
                lba = victim + offset
                requests.append(IORequest(time=t, lba=lba, mode=IOMode.WRITE,
                                          source="ransomware"))
            produced += 2 * run  # a sweep costs `run` reads + `run` writes
            victim += run
            if victim >= num_lbas - 32:
                victim = ransom_base

    # The idle gap: nothing at all for `gap_seconds`.
    t += gap_seconds

    background(max(n_after, 0), t)
    return requests


# -- measured replays --------------------------------------------------------

#: Requests excluded from the steady-state percentiles: the first
#: iterations pay interpreter warmup (bytecode specialisation, dict/branch
#: caches, allocator growth) and used to pollute ``max_us`` with ~29 ms
#: first-call outliers against a ~1 us p50.
DEFAULT_WARMUP = 2000


def _percentiles(samples_ns: List[int]) -> Dict[str, float]:
    if not samples_ns:
        return {"p50_us": 0.0, "p90_us": 0.0, "p99_us": 0.0, "max_us": 0.0}
    ordered = sorted(samples_ns)
    def pick(q: float) -> float:
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index] / 1e3
    return {
        "p50_us": pick(0.50),
        "p90_us": pick(0.90),
        "p99_us": pick(0.99),
        "max_us": ordered[-1] / 1e3,
    }


def _latency_fields(samples_ns: List[int], warmup: int) -> Dict[str, object]:
    """Whole-run and post-warmup percentile blocks for one timed replay.

    A warmup that would swallow the whole run is clamped to half of it so
    the steady-state block is never computed over an empty window.
    """
    fields: Dict[str, object] = {"per_request": _percentiles(samples_ns)}
    effective = min(max(0, warmup), len(samples_ns))
    if effective >= len(samples_ns):
        effective = len(samples_ns) // 2
    fields["warmup_requests"] = effective
    steady = samples_ns[effective:]
    steady_fields = _percentiles(steady)
    # Steady-state throughput: the post-warmup request rate is the number
    # the trajectory gate tracks — whole-run requests_per_sec folds the
    # interpreter warmup back in and understates hot-path regressions.
    total_ns = sum(steady)
    steady_fields["requests_per_sec"] = (
        1e9 * len(steady) / total_ns if total_ns else 0.0
    )
    fields["per_request_steady"] = steady_fields
    return fields


def bench_detector_path(
    requests: List[IORequest],
    config: DetectorConfig,
    warmup: int = DEFAULT_WARMUP,
) -> Dict[str, object]:
    """Replay through the bare detector, timing every request."""
    detector = RansomwareDetector(config=config, keep_history=False)
    observe = detector.observe
    clock = time.perf_counter_ns
    samples: List[int] = []
    append = samples.append
    started = time.perf_counter()
    for request in requests:
        t0 = clock()
        observe(request)
        append(clock() - t0)
    if requests:
        detector.tick(requests[-1].time + config.slice_duration)
    elapsed = time.perf_counter() - started
    slices_closed = detector._current.index
    return {
        "requests": len(requests),
        "elapsed_s": round(elapsed, 4),
        "requests_per_sec": round(len(requests) / elapsed, 1) if elapsed else 0.0,
        "slices_closed": slices_closed,
        "slices_per_sec": round(slices_closed / elapsed, 1) if elapsed else 0.0,
        "alarm": detector.alarm_raised,
        "fast_forwarded_slices": detector.fast_forwarded_slices,
        "evaluated_slices": slices_closed - detector.fast_forwarded_slices,
        **_latency_fields(samples, warmup),
    }


def bench_device_path(
    requests: List[IORequest], config: DetectorConfig,
    warmup: int = DEFAULT_WARMUP,
) -> Dict[str, object]:
    """Replay through the full simulated device (detector + FTL + NAND).

    Alarms are dismissed as they fire: folding the trace onto the small
    simulated LBA space concentrates overwrites enough to trip the
    detector, and a locked (read-only) device would silently drop writes —
    turning the rest of the replay into a no-op and inflating throughput.
    """
    from repro.ssd.config import SSDConfig
    from repro.ssd.device import SimulatedSSD

    ssd_config = SSDConfig.small(detector=config)
    ssd = SimulatedSSD(config=ssd_config)
    num_lbas = ssd.num_lbas
    clock = time.perf_counter_ns
    samples: List[int] = []
    append = samples.append
    alarms = 0
    remapped_all = [
        IORequest(time=request.time,
                  lba=request.lba % max(1, num_lbas - request.length),
                  mode=request.mode, length=request.length,
                  source=request.source)
        for request in requests
    ]
    submit = ssd.submit
    started = time.perf_counter()
    for remapped in remapped_all:
        t0 = clock()
        submit(remapped)
        append(clock() - t0)
        if ssd.read_only:
            alarms += 1
            ssd.dismiss_alarm()
    elapsed = time.perf_counter() - started
    detector = ssd.detector
    slices_closed = detector._current.index if detector is not None else 0
    return {
        "requests": len(requests),
        "elapsed_s": round(elapsed, 4),
        "requests_per_sec": round(len(requests) / elapsed, 1) if elapsed else 0.0,
        "slices_closed": slices_closed,
        "slices_per_sec": round(slices_closed / elapsed, 1) if elapsed else 0.0,
        "alarm": ssd.alarm_raised or alarms > 0,
        "alarms_dismissed": alarms,
        "host_writes": ssd.ftl.stats.host_writes,
        "gc_page_copies": ssd.ftl.stats.gc_page_copies,
        **_latency_fields(samples, warmup),
    }


def bench_scenario_path(
    config: DetectorConfig, seed: int, duration: float
) -> Dict[str, object]:
    """Generate and replay one full Table-I-style scenario end to end."""
    from repro.ssd.config import SSDConfig
    from repro.ssd.device import SimulatedSSD
    from repro.workloads.scenario import Scenario

    scenario = Scenario("bench-cloudstorage-wannacry", ransomware="wannacry",
                        app="cloudstorage", category="heavy_overwrite",
                        duration=duration)
    started = time.perf_counter()
    run = scenario.build(seed=seed)
    built = time.perf_counter()
    ssd = SimulatedSSD(config=SSDConfig.small(detector=config))
    num_lbas = ssd.num_lbas
    for request in run.trace:
        lba = request.lba % max(1, num_lbas - request.length)
        ssd.submit(IORequest(time=request.time, lba=lba, mode=request.mode,
                             length=request.length, source=request.source))
    finished = time.perf_counter()
    replay_elapsed = finished - built
    detector = ssd.detector
    return {
        "scenario": scenario.name,
        "requests": len(run.trace),
        "build_s": round(built - started, 4),
        "elapsed_s": round(replay_elapsed, 4),
        "requests_per_sec": (
            round(len(run.trace) / replay_elapsed, 1) if replay_elapsed else 0.0
        ),
        "alarm": ssd.alarm_raised,
        "alarm_slice": (
            detector.alarm_event.slice_index
            if detector is not None and detector.alarm_event is not None
            else None
        ),
    }


# -- provenance --------------------------------------------------------------

def report_meta(config: Dict[str, object]) -> Dict[str, object]:
    """Provenance stamped into every report: git SHA + config hash.

    ``repro.tools.benchdiff`` refuses to treat two reports as comparable
    silently when their config hashes differ, and the SHAs map a
    regression straight onto a commit range.  Outside a git checkout the
    SHA is ``None`` (the report stays valid).
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
        "created_unix": round(time.time(), 3),
    }


# -- CLI ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """CLI argument parser (separate so tests can introspect defaults)."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.bench",
        description="Benchmark the detector hot path and emit BENCH_hotpath.json.",
    )
    parser.add_argument("--requests", type=int, default=1_000_000,
                        help="synthetic trace size (default: 1M)")
    parser.add_argument("--gap", type=float, default=3600.0,
                        help="idle-gap length in seconds (default: 1 hour)")
    parser.add_argument("--seed", type=int, default=7,
                        help="synthetic-mix seed")
    parser.add_argument("--device-requests", type=int, default=60_000,
                        help="request budget for the device path")
    parser.add_argument("--scenario-duration", type=float, default=60.0,
                        help="full-scenario run length in seconds")
    parser.add_argument("--warmup", type=int, default=DEFAULT_WARMUP,
                        help="requests excluded from the steady-state "
                             "percentiles (default: %(default)s)")
    parser.add_argument("--profile", metavar="FILE", default=None,
                        help="also run the device mix under the layer "
                             "profiler and write the ssd-insider.profile/v2 "
                             "report to FILE")
    parser.add_argument("--paths", default="detector,device,scenario",
                        help="comma list from {detector,device,scenario}")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: tiny trace, no timing claims")
    parser.add_argument("--out", default="results/BENCH_hotpath.json",
                        help="output JSON path")
    parser.add_argument("--archive-dir", metavar="DIR", default=None,
                        help="directory for the SHA-named trajectory copy "
                             "(default: a 'trajectory/' sibling of --out)")
    parser.add_argument("--no-archive", action="store_true",
                        help="skip the trajectory archive copy")
    return parser


def archive_report(
    report: Dict[str, object],
    out_path: Path,
    archive_dir: Optional[str] = None,
) -> Path:
    """Drop a SHA-named copy of the report into the trajectory directory.

    The perf history (``benchdiff --trajectory``) only works if every
    ``bench`` run leaves a stamped report behind, so this runs by default
    on every invocation.  The name is
    ``BENCH_<git-sha12>_<config-hash>.json`` — re-running at the same
    commit with the same config overwrites (latest wins; the trajectory
    is ordered by ``meta.created_unix``, not by filename), while any
    config change lands beside it instead of clobbering a different
    series.  Outside a git checkout the SHA slot reads ``nogit``.
    """
    directory = (Path(archive_dir) if archive_dir is not None
                 else out_path.parent / "trajectory")
    directory.mkdir(parents=True, exist_ok=True)
    meta = report.get("meta", {}) or {}
    sha = str(meta.get("git_sha") or "nogit")[:12]  # type: ignore[union-attr]
    config_hash = meta.get("config_hash", "noconfig")  # type: ignore[union-attr]
    path = directory / f"BENCH_{sha}_{config_hash}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    """Run the selected benchmark paths and write the JSON report."""
    args = build_parser().parse_args(argv)
    if args.smoke:
        args.requests = min(args.requests, 30_000)
        args.gap = min(args.gap, 60.0)
        args.device_requests = min(args.device_requests, 8_000)
        args.scenario_duration = min(args.scenario_duration, 30.0)
        args.warmup = min(args.warmup, 500)
    config = DetectorConfig()
    paths = [p.strip() for p in args.paths.split(",") if p.strip()]
    report: Dict[str, object] = {
        "schema": "ssd-insider.bench_hotpath/v1",
        "smoke": bool(args.smoke),
        "config": {
            "requests": args.requests,
            "gap_seconds": args.gap,
            "seed": args.seed,
            "slice_duration": config.slice_duration,
            "window_slices": config.window_slices,
            "threshold": config.threshold,
            "warmup_requests": args.warmup,
        },
        "paths": {},
    }
    report["meta"] = report_meta(report["config"])

    mix = None
    if "detector" in paths or "device" in paths:
        print(f"synthesizing {args.requests:,}-request mix "
              f"(idle gap {args.gap:.0f}s) ...", flush=True)
        mix = synthesize_mix(args.requests, args.gap, args.seed)

    if "detector" in paths:
        print("detector path ...", flush=True)
        detector_result = bench_detector_path(mix, config, warmup=args.warmup)
        report["paths"]["detector"] = detector_result
        print(f"  {detector_result['requests_per_sec']:,.0f} req/s, "
              f"{detector_result['fast_forwarded_slices']} slices "
              f"fast-forwarded", flush=True)

    if "device" in paths:
        print("device path ...", flush=True)
        device_mix = synthesize_mix(args.device_requests, args.gap, args.seed,
                                    include_ransomware=False)
        report["paths"]["device"] = bench_device_path(
            device_mix, config, warmup=args.warmup)
        print(f"  {report['paths']['device']['requests_per_sec']:,.0f} req/s",
              flush=True)

    if args.profile is not None:
        from repro.ssd.config import SSDConfig
        from repro.tools.profile import profile_requests

        print("profiled device replay ...", flush=True)
        profile_mix = synthesize_mix(args.device_requests, args.gap,
                                     args.seed, include_ransomware=False)
        profile = profile_requests(
            profile_mix,
            duration=profile_mix[-1].time if profile_mix else 0.0,
            name="bench-device-mix",
            config=SSDConfig.small(detector=config),
        )
        profile_path = Path(args.profile)
        profile_path.parent.mkdir(parents=True, exist_ok=True)
        profile_path.write_text(json.dumps(profile, indent=2) + "\n",
                                encoding="utf-8")
        report["profile"] = {
            "out": str(profile_path),
            "coverage": profile["coverage"],
            "top_layers": profile["device_path"]["top_layers"],
        }
        # Trajectory metrics for benchdiff live under ``paths`` (that is
        # all flatten_metrics walks): the layer shares the fast-lane work
        # is meant to shrink, as exclusive-% of profiled wall time.
        shares = {row["layer"]: row["exclusive_pct_of_wall"]
                  for row in profile["layers"]}
        report["paths"]["device_profile"] = {
            "queue_update_pct_of_wall": shares.get("queue.update", 0.0),
            "ftl_translate_pct_of_wall": shares.get("ftl.translate", 0.0),
        }
        print(f"  profile -> {profile_path}", flush=True)

    if "scenario" in paths:
        print("full-scenario path ...", flush=True)
        report["paths"]["scenario"] = bench_scenario_path(
            config, args.seed, args.scenario_duration)
        print(f"  {report['paths']['scenario']['requests_per_sec']:,.0f} req/s",
              flush=True)

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    if not args.no_archive:
        archived = archive_report(report, out_path, args.archive_dir)
        print(f"archived {archived}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
