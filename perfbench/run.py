"""Run one workload in this process, check its outputs, print its metrics.

    python3 perfbench/run.py --workload golden_attack [--seed N]
        [--seconds 10] [--trace 0|1] [--smoke] [--out run.json]

One set-up is the input build (plus device construction where there is
one) followed by an untimed warm-up replay; it runs three times and
``setup_s`` is the median, so work moved into set-up or warm-up shows.
Timed replays then repeat, each on fresh state after a ``gc.collect()``,
until ``--seconds`` have passed.
Every replay's fingerprint must equal the pinned one (default seed) or the
first replay's (any other seed), and the FTL audits must pass; otherwise
the replay's requests count as failed.

With ``--trace 1`` one untraced replay is the reference, and the timed
replays run under :class:`~perfbench.trace.LayerTracer`; their
fingerprints must equal the reference's.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics listed in
``BENCHMARK.json`` (``--trace 0``) or every per-layer metric (``--trace
1``).  ``--out`` writes the whole run record: provenance, sizes, repeat
counts, per-replay numbers and every metric with its sample count.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np  # noqa: E402

from perfbench import ROOT  # noqa: E402
from perfbench.metrics import BY_NAME, DERIVED, LISTED, per_layer  # noqa: E402
from perfbench.trace import LAYERS, LayerTracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Replay, Workload  # noqa: E402

SETUP_REPEATS = 3

#: Share of traced wall the layer self times must account for.
COVERAGE_FLOOR_PCT = 95.0

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


def pinned_fingerprint(name: str, seed: int, smoke: bool) -> Optional[dict]:
    """The committed fingerprint for ``name`` at ``seed``, if there is one."""
    if smoke or not FINGERPRINTS.is_file():
        return None
    entry = json.loads(FINGERPRINTS.read_text(encoding="utf-8")).get(name)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["fingerprint"]


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _replay(workload: Workload, tracer=None) -> Replay:
    try:
        return workload.replay(tracer)
    except Exception:  # noqa: BLE001 - a crashing replay is a failed one
        return Replay(units=workload.units(), error=traceback.format_exc())


def _summarise(replay: Replay) -> Dict[str, object]:
    """Per-replay numbers for the run record; drops the raw samples."""
    row: Dict[str, object] = {"wall_s": replay.wall_s,
                              "requests": replay.requests}
    samples = replay.latencies_ns
    if samples is not None and len(samples):
        ordered = np.sort(np.frombuffer(samples, dtype=np.int64))
        count = len(ordered)
        row["samples"] = count
        row["p50_us"] = float(ordered[count // 2]) / 1e3
        row["p99_us"] = float(ordered[min(count - 1, int(count * 0.99))]) / 1e3
    replay.latencies_ns = None
    if replay.rollbacks_ns:
        row["rollbacks_ms"] = [ns / 1e6 for ns in replay.rollbacks_ns]
    if replay.devices:
        row["devices"] = replay.devices
    if replay.error is not None:
        row["error"] = replay.error
    return row


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_workload(
    name: str,
    seed: Optional[int] = None,
    seconds: float = 10.0,
    traced: bool = False,
    smoke: bool = False,
    expected: Optional[dict] = None,
) -> Dict[str, object]:
    """Set up, warm up and replay one workload; returns the run record.

    ``expected`` is the fingerprint every replay must produce; by default
    the pinned one for this seed, else the first replay's.
    """
    workload = WORKLOADS[name](seed, smoke, traced)
    source = "given"
    if expected is None:
        expected = pinned_fingerprint(name, workload.seed, smoke)
        source = "pinned" if expected is not None else "first replay"
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        workload.setup()
        built = perf_counter()
        workload.warmup()
        setup_runs.append({"build_s": built - started,
                           "warmup_s": perf_counter() - built})

    reference = _replay(workload) if traced else None
    tracer = LayerTracer() if traced else None
    replays: List[Replay] = []
    rows: List[Dict[str, object]] = []
    if tracer is not None:
        tracer.install()
    try:
        started = perf_counter()
        while not replays or perf_counter() - started < seconds:
            replays.append(_replay(workload, tracer))
            rows.append(_summarise(replays[-1]))
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = _peak_rss_mb()

    judged = list(zip(replays, rows))
    if reference is not None:
        reference_row = _summarise(reference)
        judged.insert(0, (reference, reference_row))
    if expected is None:
        expected = next((r.fingerprint for r, _ in judged if r.error is None),
                        None)
    attempted = failed = 0
    for replay, row in judged:
        attempted += replay.units
        matches = _canonical(replay.fingerprint) == _canonical(expected)
        if replay.error is not None or not matches:
            row["failed"] = replay.units
            failed += replay.units
        else:
            failed += replay.failed_units

    timed = [(r, row) for r, row in zip(replays, rows) if r.wall_s > 0]
    record: Dict[str, object] = {
        "schema": "perfbench.run/v1",
        "workload": name,
        "seed": workload.seed,
        "smoke": smoke,
        "traced": traced,
        "seconds": seconds,
        "sizes": workload.sizes(),
        "repeats": {"setup": SETUP_REPEATS, "replays": len(replays),
                    "reference": 0 if reference is None else 1},
        "setup": setup_runs,
        "replays": rows,
        "fingerprint": expected,
        "fingerprint_source": source,
        "attempted": attempted,
        "failed": failed,
    }
    if reference is not None:
        record["reference"] = reference_row
    if traced:
        record["metrics"] = _layer_metrics(
            tracer, [r for r, _ in timed], reference)
        record["missing_layers"] = list(tracer.missing)
        coverage = record["metrics"]["trace.coverage_pct"]["value"]
        record["correct"] = failed == 0 and coverage >= COVERAGE_FLOOR_PCT
    else:
        record["metrics"] = _end_to_end_metrics(
            name, setup_runs, timed, rss_mb, attempted, failed)
        record["correct"] = failed == 0
    return record


def _metric(value: float, unit: str, samples: int) -> Dict[str, object]:
    return {"value": value, "unit": unit, "samples": samples}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _end_to_end_metrics(name, setup_runs, timed, rss_mb,
                        attempted, failed) -> Dict[str, object]:
    """Medians over the timed replays; latency percentiles are per replay."""
    rows = [row for _, row in timed]
    values: Dict[str, Dict[str, object]] = {}

    def put(metric: str, value: float, samples: int) -> None:
        if name in BY_NAME[metric].workloads:
            values[metric] = _metric(value, BY_NAME[metric].unit, samples)

    put("setup_s", _median(run["build_s"] + run["warmup_s"]
                           for run in setup_runs), len(setup_runs))
    put("requests_per_s", _median(r.requests / r.wall_s for r, _ in timed),
        len(timed))
    samples = sum(row.get("samples", 0) for row in rows)
    put("request_p50_us", _median(row["p50_us"] for row in rows
                                  if "p50_us" in row), samples)
    put("request_p99_us", _median(row["p99_us"] for row in rows
                                  if "p99_us" in row), samples)
    rollbacks = [ms for row in rows for ms in row.get("rollbacks_ms", ())]
    put("rollback_p50_ms", _median(rollbacks), len(rollbacks))
    put("devices_per_s", _median(r.devices / r.wall_s for r, _ in timed
                                 if r.devices), len(timed))
    put("peak_rss_mb", rss_mb, 1)
    put("failed_fraction", failed / attempted if attempted else 1.0, attempted)
    return values


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(tracer: LayerTracer, timed: List[Replay],
                   reference: Replay) -> Dict[str, object]:
    """Per traced replay: calls and self time per layer, derived ratios."""
    count = max(1, len(timed))
    wall_ns = sum(r.wall_s for r in timed) * 1e9
    values: Dict[str, Dict[str, object]] = {}
    covered = 0
    for layer in LAYERS:
        calls, self_ns = tracer.stats[layer]
        covered += self_ns
        values[f"{layer}.calls"] = _metric(calls / count, "count", count)
        values[f"{layer}.self_ms"] = _metric(self_ns / count / 1e6, "ms", count)
        values[f"{layer}.self_pct"] = _metric(
            100.0 * _ratio(self_ns, wall_ns), "%", count)
    totals: Dict[str, int] = {}
    for replay in timed:
        for key, value in replay.counters.items():
            totals[key] = totals.get(key, 0) + value
    host_writes = totals.get("host_writes", 0)
    pushes = tracer.stats["ftl.queue.log"][0] + tracer.stats["ftl.queue.push"][0]
    traced_wall = _median(r.wall_s for r in timed)
    derived = {
        "ftl.write_amplification": _ratio(
            host_writes + totals.get("gc_page_copies", 0), host_writes),
        "ftl.gc.copies_per_erase": _ratio(totals.get("gc_page_copies", 0),
                                          totals.get("erases", 0)),
        "ftl.queue.evictions_per_push": _ratio(
            totals.get("queue_evictions", 0), pushes),
        "nand.programs_per_host_write": _ratio(
            totals.get("nand_programs", 0), host_writes),
        "core.fast_forward_share": _ratio(
            totals.get("fast_forwarded_slices", 0),
            totals.get("slices_closed", 0)),
        "trace.coverage_pct": 100.0 * _ratio(covered, wall_ns),
        "trace.overhead_pct": (100.0 * (traced_wall / reference.wall_s - 1.0)
                               if reference.wall_s else 0.0),
    }
    for key, unit, _ in DERIVED:
        values[key] = _metric(derived[key], unit, count)
    return values


def summary_line(record: Dict[str, object]) -> str:
    """The one-line JSON result: exactly the metrics ``BENCHMARK.json`` names."""
    if record["traced"]:
        names = [name for name, _, _ in per_layer()]
    else:
        names = [m.name for m in LISTED]
    metrics = record["metrics"]
    return json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": metrics[name]["value"],
                           "unit": metrics[name]["unit"]} for name in names},
    })


def render(record: Dict[str, object]) -> str:
    """Human-readable lines: every metric with its unit."""
    mode = "traced" if record["traced"] else "untraced"
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} {mode}: "
        f"{record['repeats']['replays']} replays, correct={record['correct']}"
        f", failed {record['failed']}/{record['attempted']}"
    ]
    metrics = record["metrics"]
    if record["traced"]:
        layers = sorted((k for k in metrics if k.endswith(".self_pct")),
                        key=lambda k: -metrics[k]["value"])
        for key in layers:
            layer = key[:-len(".self_pct")]
            calls = metrics[f"{layer}.calls"]["value"]
            if calls:
                lines.append(
                    f"  {layer:28s} {calls:12.0f} calls "
                    f"{metrics[f'{layer}.self_ms']['value']:10.1f} ms "
                    f"{metrics[key]['value']:6.1f} %")
        names = [name for name, _, _ in per_layer()
                 if not name.endswith((".calls", ".self_ms", ".self_pct"))]
        if record["missing_layers"]:
            lines.append(f"  missing layers: {', '.join(record['missing_layers'])}")
    else:
        names = list(metrics)
    for name in names:
        metric = metrics[name]
        lines.append(f"  {name:28s} {metric['value']:14.4f} {metric['unit']}")
    return "\n".join(lines)


def provenance() -> Dict[str, object]:
    """Git SHA and host: recorded with every run written by ``--out``."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": sha,
        "host": {"cpu_model": cpu, "nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__, "platform": platform.platform()},
        "created_unix": time.time(),
    }


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for one workload run."""
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="trace seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed replays run (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="test-sized inputs; no pinned fingerprints")
    parser.add_argument("--out", default=None,
                        help="write the full run record (JSON) here")
    return parser


def stop_helper_processes() -> None:
    """Reap every process the run started, so none outlives it.

    ``run_fleet``'s spawned pool also starts multiprocessing's resource
    tracker, which otherwise stays up until the interpreter has exited and
    only then notices its parent is gone.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()  # closes its pipe and waits for it to exit


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one workload; the exit code is 0 whenever a result was printed."""
    args = build_parser().parse_args(argv)
    # A terminated run unwinds like any other, so pools shut their workers.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        record = run_workload(args.workload, seed=args.seed,
                              seconds=args.seconds, traced=bool(args.trace),
                              smoke=args.smoke)
    finally:
        stop_helper_processes()
    if args.out is not None:
        record["provenance"] = provenance()
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(render(record))
    print(summary_line(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
