"""Hot-path throughput benchmark (BENCH_hotpath.json).

Pytest front end for :mod:`repro.tools.bench`: replays a synthetic
ransomware/background mix (with a long idle gap, so the fast-forward path
is exercised) through the bare detector and the simulated device, and
times a full catalog scenario.  Equivalence with the naive reference is
the test suite's job (``tests/test_hotpath_equivalence.py``).  Results are
rendered to stdout and persisted as ``results/BENCH_hotpath.json`` — the
same artifact ``python -m repro.tools.bench`` emits, and the one CI
uploads.

The trace here is deliberately moderate (benchmarks should finish in
seconds); the full acceptance run is the CLI's default 1M-request trace.
"""

import json

from repro.core.config import DetectorConfig
from repro.tools.bench import (
    bench_detector_path,
    bench_device_path,
    bench_scenario_path,
    synthesize_mix,
)

from conftest import RESULTS_DIR

REQUESTS = 120_000
GAP_SECONDS = 600.0
SEED = 7


def _render(report: dict) -> str:
    lines = [
        "BENCH_hotpath — detector hot-path throughput",
        f"  trace: {report['config']['requests']:,} requests, "
        f"{report['config']['gap_seconds']:.0f}s idle gap, "
        f"seed {report['config']['seed']}",
        "",
        f"  {'path':<26} {'req/s':>12} {'slices/s':>10} "
        f"{'p99 us':>9} {'alarm':>6}",
    ]
    for name, row in report["paths"].items():
        lines.append(
            f"  {name:<26} {row['requests_per_sec']:>12,.0f} "
            f"{row.get('slices_per_sec', 0.0):>10,.1f} "
            f"{row['per_request']['p99_us'] if 'per_request' in row else 0.0:>9.2f} "
            f"{str(row['alarm']):>6}"
        )
    detector = report["paths"].get("detector", {})
    if detector:
        lines.append("")
        lines.append(
            f"  fast-forwarded slices: {detector['fast_forwarded_slices']} "
            f"(evaluated: {detector['evaluated_slices']})"
        )
    return "\n".join(lines)


def test_hotpath_throughput(benchmark, publish):
    config = DetectorConfig()
    report = {
        "schema": "ssd-insider.bench_hotpath/v1",
        "smoke": False,
        "config": {
            "requests": REQUESTS,
            "gap_seconds": GAP_SECONDS,
            "seed": SEED,
            "slice_duration": config.slice_duration,
            "window_slices": config.window_slices,
            "threshold": config.threshold,
        },
        "paths": {},
    }

    def run():
        mix = synthesize_mix(REQUESTS, GAP_SECONDS, SEED)
        report["paths"]["detector"] = bench_detector_path(mix, config)
        device_mix = synthesize_mix(8_000, GAP_SECONDS, SEED,
                                    include_ransomware=False)
        report["paths"]["device"] = bench_device_path(device_mix, config)
        report["paths"]["scenario"] = bench_scenario_path(
            config, SEED, duration=30.0)
        return report

    benchmark.pedantic(run, rounds=1, iterations=1)

    # Assert the headline structural facts so a silent schema change
    # fails loudly.
    assert report["paths"]["detector"]["fast_forwarded_slices"] > 0
    assert report["paths"]["detector"]["alarm"]

    out = RESULTS_DIR / "BENCH_hotpath.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    publish("BENCH_hotpath", _render(report))
