"""The fleet orchestrator: shard N device runs across a worker pool.

Topology (see ``docs/fleet.md`` for the operator view)::

    FleetPlan ──► orchestrator ──► worker pool (``--shards`` processes)
                      │                 │ one DeviceSpec per task
                      │                 ▼
                      │           run_device() ──► device record
                      │                 │
                      ◄─────────────────┘  (streamed back, any order)
                      │
                reorder buffer (emit in index order)
                      │
                      ├──► fleet file  (ssd-insider.fleetrec/v1)
                      └──► aggregator  (MetricsRegistry merge)

Two invariants make sharding invisible in every artifact:

* Workers receive only ``(plan, index)`` and derive everything else —
  there is no shared mutable state to race on.
* Results are buffered and released **in device-index order**, so the
  fleet file bytes and the merged registry are identical for any shard
  count.  ``run --oracle`` (and the tier-1 tests) verify this
  bit-for-bit.

Worker processes use the ``spawn`` start method: slower to boot than
``fork`` but identical on every platform, and immune to inheriting
half-initialised state from the parent.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.fleet.plan import FleetPlan
from repro.fleet.record import write_fleet_file
from repro.fleet.telemetry import TelemetrySession
from repro.fleet.worker import pool_init, pool_run, run_device

#: Progress callback: (records_done, records_total, latest_record).
ProgressFn = Callable[[int, int, Dict[str, object]], None]


@dataclass
class FleetRunSummary:
    """Wall-clock and outcome summary of one fleet run.

    Wall time lives here — and only here — so the determinism-gated
    artifacts (fleet file, merged registry) stay free of host timing.
    """

    devices: int
    #: Worker processes: the requested count capped at one per device
    #: (1 for an in-process run).
    shards: int
    wall_seconds: float
    out_path: Optional[str] = None
    verdicts: Dict[str, int] = field(default_factory=dict)

    @property
    def devices_per_sec(self) -> float:
        """Fleet throughput (devices completed per wall second)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.devices / self.wall_seconds

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (embedded in run reports, never in records)."""
        return {
            "devices": self.devices,
            "shards": self.shards,
            "wall_seconds": self.wall_seconds,
            "devices_per_sec": self.devices_per_sec,
            "out_path": self.out_path,
            "verdicts": dict(sorted(self.verdicts.items())),
        }


def _iter_records_sequential(
    plan: FleetPlan,
    telemetry: Optional[TelemetrySession] = None,
) -> Iterator[Dict[str, object]]:
    """In-process execution: specs in index order, one at a time.

    With a telemetry session, one local emitter (collector-direct sink,
    no queue) serves the whole run — the same live view the sharded path
    gets, minus the cross-process hop.
    """
    emitter = telemetry.local_emitter() if telemetry is not None else None
    for spec in plan.specs():
        record, _ = run_device(plan, spec, emitter=emitter)
        yield record


def _iter_records_sharded(
    plan: FleetPlan,
    shards: int,
    telemetry: Optional[TelemetrySession] = None,
) -> Iterator[Dict[str, object]]:
    """Pool execution with an index-ordered reorder buffer.

    ``imap_unordered`` streams records back as workers finish them; the
    buffer holds early arrivals until every lower index has been emitted,
    bounding memory to the in-flight window rather than the fleet.

    The telemetry queue (when armed) rides through the pool initializer
    arguments — the one place a ``multiprocessing.Queue`` may cross the
    process boundary — and the session's drainer thread folds worker
    messages into the live view while this generator blocks on results.
    """
    context = multiprocessing.get_context("spawn")
    chunksize = max(1, plan.devices // (shards * 8))
    pending: Dict[int, Dict[str, object]] = {}
    next_index = 0
    initargs: tuple = (plan.to_dict(),)
    if telemetry is not None:
        initargs = (
            plan.to_dict(), telemetry.config.to_dict(), telemetry.queue,
        )
    with context.Pool(
        processes=shards, initializer=pool_init, initargs=initargs,
    ) as pool:
        for record in pool.imap_unordered(
            pool_run, range(plan.devices), chunksize=chunksize
        ):
            pending[int(record["index"])] = record  # type: ignore[arg-type]
            while next_index in pending:
                yield pending.pop(next_index)
                next_index += 1
        # Shut down cleanly rather than letting __exit__ terminate():
        # a worker's last record can reach the result queue while its
        # telemetry feeder thread still holds buffered messages, and a
        # SIGTERM there drops them.  Normal exit joins the feeders.
        pool.close()
        pool.join()
    while next_index in pending:  # pragma: no cover - drained above
        yield pending.pop(next_index)
        next_index += 1


def run_fleet(
    plan: FleetPlan,
    shards: int = 1,
    out_path: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressFn] = None,
    telemetry: Optional[TelemetrySession] = None,
) -> "FleetRunResult":
    """Run the whole fleet; returns records (index order) + summary.

    Args:
        plan: The fleet plan (validated by the caller for early errors;
            unknown scenarios otherwise surface as per-device error
            records).
        shards: Worker process count; ``1`` runs in-process with no pool,
            which is the reference the determinism oracle compares
            against.  It is capped at ``plan.devices``, and the summary
            reports the capped count.
        out_path: When set, the ``ssd-insider.fleetrec/v1`` fleet file is
            written here (plan header + records in index order).
        progress: Optional callback fired per completed device.
        telemetry: Optional :class:`~repro.fleet.telemetry.TelemetrySession`
            arming the live telemetry plane (heartbeats, merged metrics,
            stall watchdog, fleet timeline).  Purely observational: the
            records, the fleet file bytes, and the progress stream are
            identical with or without it.  Sessions are single-use — the
            orchestrator starts and finishes it around this run.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    # A worker with no device to run would still pay its interpreter,
    # numpy and repro imports; never start more workers than devices.
    shards = min(shards, plan.devices)
    started = perf_counter()
    source = (
        _iter_records_sequential(plan, telemetry) if shards == 1
        else _iter_records_sharded(plan, shards, telemetry)
    )
    if telemetry is not None:
        telemetry.start()
    records: List[Dict[str, object]] = []
    verdicts: Dict[str, int] = {}
    try:
        for record in source:
            records.append(record)
            verdict = str(record.get("verdict", "clean"))
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            if telemetry is not None:
                telemetry.device_done(record)
            if progress is not None:
                progress(len(records), plan.devices, record)
    finally:
        if telemetry is not None:
            telemetry.finish()
    summary = FleetRunSummary(
        devices=plan.devices,
        shards=shards,
        wall_seconds=perf_counter() - started,
        out_path=str(out_path) if out_path is not None else None,
        verdicts=verdicts,
    )
    if out_path is not None:
        write_fleet_file(out_path, plan.to_dict(), records)
    return FleetRunResult(records=records, summary=summary)


@dataclass
class FleetRunResult:
    """What :func:`run_fleet` returns: records in index order + summary."""

    records: List[Dict[str, object]]
    summary: FleetRunSummary
