"""One fleet device, end to end: build, replay, classify, record.

:func:`run_device` is the unit the orchestrator fans out: it realises a
:class:`~repro.fleet.plan.DeviceSpec` into a seeded scenario trace,
replays it through a full :class:`~repro.ssd.device.SimulatedSSD`
(detector in the data path, lockdown on alarm), classifies the outcome
into one of the fleet verdicts, and returns a plain-dict device record
ready for ``ssd-insider.fleetrec/v1`` encoding.

Every field of the record is derived from *simulated* state — sim-time
latencies, deterministic counters — never from wall clocks, so the same
spec always yields the same record bytes.  Wall time is measured by the
orchestrator around the whole fleet and reported separately (the
devices/sec table in ``docs/fleet.md``), precisely so it can never leak
into the determinism-gated artifacts.

A device that *fails* — unknown scenario name, workload bug, anything —
does not sink the fleet: :func:`run_device` contains the exception and
returns an error record (``verdict: "error"``), which is itself
deterministic and ranked at the top of the triage queue.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.fleet.plan import DeviceSpec, FleetPlan, scenario_category
from repro.fleet.record import FLEETREC_SCHEMA
from repro.nand.geometry import NandGeometry
from repro.obs import EventTracer, MetricsRegistry, Observability
from repro.obs.flightrec import FlightRecorder
from repro.obs.telemetry import WorkerEmitter
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD

#: The fleet's outcome taxonomy, in ascending severity order.
VERDICTS = ("clean", "true_alarm", "false_alarm", "missed", "error")

#: Triage severity per verdict (higher = worse; see docs/fleet.md).
SEVERITY = {
    "clean": 0,
    "true_alarm": 1,
    "false_alarm": 2,
    "missed": 3,
    "error": 4,
}


#: Over-provisioning share of fleet devices.  Generous on purpose: the
#: Table I heavy-overwrite scenarios (iometer, datawiping, install) can
#: rewrite the whole span inside the 10-second retention window, and the
#: recovery queue pins those old versions against GC — a thin-OP device
#: runs out of free blocks mid-scenario.
FLEET_OP_RATIO = 0.25

#: Chunk size for the batched replay loop.  Determinism is unaffected by
#: the choice (``submit_batch`` stops at the read-only transition, so
#: alarm handling lands at the same request boundary regardless); it only
#: trades per-batch bookkeeping against slice-copy size.
FLEET_BATCH = 256


def device_geometry(num_lbas: int) -> NandGeometry:
    """The smallest standard fleet geometry covering ``num_lbas``.

    Deterministic in ``num_lbas`` alone: 2 channels x 2 ways x 64-page
    blocks, with blocks-per-chip sized so the logical capacity (after
    the :data:`FLEET_OP_RATIO` over-provisioning share) covers the
    scenario span with two spare erase blocks of slack for GC.
    """
    channels, ways, pages_per_block = 2, 2, 64
    pages_needed = num_lbas / (1.0 - FLEET_OP_RATIO)
    per_chip_pages = channels * ways * pages_per_block
    blocks = int(pages_needed // per_chip_pages) + 1
    while blocks * per_chip_pages * (1.0 - FLEET_OP_RATIO) < num_lbas:
        blocks += 1
    return NandGeometry(
        channels=channels,
        ways=ways,
        blocks_per_chip=blocks + 2,
        pages_per_block=pages_per_block,
    )


def build_device(
    plan: FleetPlan,
    flight: bool = False,
    emitter: Optional[WorkerEmitter] = None,
) -> SimulatedSSD:
    """Assemble one fleet device (optionally instrumented).

    The un-instrumented default is what plain fleet runs use —
    observability adds wall-clock samples that have no place in a
    determinism-gated record.  ``flight=True`` arms the black box for
    on-demand incident cutting (``fleet triage --cut-incidents``);
    ``emitter`` arms whatever the telemetry plane asked for — a bounded
    drop-oldest :class:`~repro.obs.tracer.EventTracer` ring for the fleet
    timeline and/or a :class:`~repro.obs.metrics.MetricsRegistry` to ship
    live population snapshots from.  Either way PR 4's read-only
    guarantee holds: the armed replay takes identical decisions, so the
    device record bytes never change.
    """
    timeline = emitter is not None and emitter.timeline
    metrics = flight or (emitter is not None and emitter.metrics)
    obs: Optional[Observability] = None
    if timeline or metrics:
        obs = Observability(
            # A flight bundle keeps the full trace, as
            # Observability.on(flight=...) does.
            tracer=(EventTracer(max_events=emitter.timeline_events,
                                drop_oldest=True) if timeline
                    else EventTracer() if flight else None),
            metrics=MetricsRegistry() if metrics else None,
            flightrec=FlightRecorder() if flight else None,
        )
    return SimulatedSSD(
        SSDConfig(
            geometry=device_geometry(plan.num_lbas),
            op_ratio=FLEET_OP_RATIO,
            queue_capacity=plan.queue_capacity,
        ),
        obs=obs,
    )


def classify_verdict(
    has_ransomware: bool, alarm_raised: bool, error: Optional[str]
) -> str:
    """Map one device outcome onto the fleet verdict taxonomy."""
    if error is not None:
        return "error"
    if has_ransomware:
        return "true_alarm" if alarm_raised else "missed"
    return "false_alarm" if alarm_raised else "clean"


def severity_of(record: Dict[str, object]) -> int:
    """Triage severity of a device record (higher = worse)."""
    return SEVERITY.get(str(record.get("verdict")), 0)


def run_device(
    plan: FleetPlan,
    spec: DeviceSpec,
    flight: bool = False,
    emitter: Optional[WorkerEmitter] = None,
) -> Tuple[Dict[str, object], Optional[Dict[str, object]]]:
    """Run one device; returns ``(record, incident_bundle_or_None)``.

    The record is deterministic in ``(plan, spec)``.  An incident bundle
    (``ssd-insider.incident/v1``) is cut only when ``flight=True`` —
    fleet runs keep records compact and re-derive bundles on demand.

    ``emitter`` arms the telemetry plane: phase heartbeats (forced at
    ``build``/``replay``/``tick``/``done`` transitions, interval-gated
    inside the replay loop), live registry snapshots, and the bounded
    event ring shipped at completion.  Telemetry is observational only —
    the record bytes are the same with or without it — and emitter
    failures are contained exactly like device failures.
    """
    try:
        return _run_device_impl(plan, spec, flight, emitter)
    except Exception as exc:  # noqa: BLE001 - containment is the contract
        record = _base_record(plan, spec)
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["verdict"] = classify_verdict(False, False, record["error"])
        if emitter is not None:
            # Best-effort terminal heartbeat so the collector sees the
            # failure immediately, not only when the record lands.
            emitter.heartbeat(
                spec.index, spec.device_id, "done", force=True)
        return record, None


def _base_record(plan: FleetPlan, spec: DeviceSpec) -> Dict[str, object]:
    """The field skeleton every device record shares (docs/fleet.md)."""
    return {
        "schema": FLEETREC_SCHEMA,
        "kind": "device",
        "index": spec.index,
        "device_id": spec.device_id,
        "scenario": spec.scenario,
        "category": scenario_category(spec.scenario),
        "seed": spec.seed,
        "benign": spec.benign,
        "has_ransomware": False,
        "onset": None,
        "duration": plan.duration,
        "num_lbas": plan.num_lbas,
        "requests_total": 0,
        "requests_replayed": 0,
        "blocks_written": 0,
        "blocks_read": 0,
        "alarm_raised": False,
        "alarm_time": None,
        "detection_latency": None,
        "score_peak": 0,
        "slices_closed": 0,
        "dropped_writes": 0,
        "gc_runs": 0,
        "gc_page_copies": 0,
        "queue_peak": 0,
        "error": None,
        "verdict": "clean",
    }


def _run_device_impl(
    plan: FleetPlan,
    spec: DeviceSpec,
    flight: bool,
    emitter: Optional[WorkerEmitter] = None,
) -> Tuple[Dict[str, object], Optional[Dict[str, object]]]:
    record = _base_record(plan, spec)
    if emitter is not None:
        emitter.heartbeat(spec.index, spec.device_id, "build", force=True)
    scenario = plan.mix.resolve(spec.scenario)
    run = scenario.build(
        seed=spec.seed,
        num_lbas=plan.num_lbas,
        duration=plan.duration,
        include_ransomware=not spec.benign,
    )
    device = build_device(plan, flight=flight, emitter=emitter)
    if flight:
        device.obs.flightrec.set_context(
            device_id=spec.device_id,
            scenario=spec.scenario,
            seed=spec.seed,
            attack_onset=run.onset if run.onset is not None else 0.0,
        )
    replayed = 0
    blocks_written = blocks_read = 0
    # Replay in batches.  submit_batch stops at the
    # read-only *transition*, so the alarm check below lands on the exact
    # request that raised it — the same boundary the old per-request loop
    # broke on — and the executed prefix is all that counts toward the
    # block tallies.
    trace = run.trace
    total = len(trace)
    submit_batch = device.submit_batch
    if emitter is not None:
        emitter.heartbeat(
            spec.index, spec.device_id, "replay",
            sim_time=device.clock.now, replayed=0, total=total, force=True,
        )
    while replayed < total:
        chunk = trace[replayed:replayed + FLEET_BATCH]
        executed = submit_batch(chunk)
        for request in chunk[:executed]:
            if request.is_write:
                blocks_written += request.length
            else:
                blocks_read += request.length
        replayed += executed
        if emitter is not None and emitter.heartbeat(
            spec.index, spec.device_id, "replay",
            sim_time=device.clock.now, replayed=replayed, total=total,
        ):
            # Piggyback the registry snapshot on the heartbeat's interval
            # gate (refresh first so derived gauges are current).
            if emitter.metrics:
                device.refresh_obs_metrics()
                emitter.emit_metrics(
                    spec.index, spec.device_id, device.obs.metrics)
        if device.alarm_raised:
            # Lockdown: the paper's firmware goes read-only, so the rest
            # of the trace could only be dropped writes.  Stop replaying
            # (the alarm time and latency are already determined).
            break
    # Queue high-water mark: the queue tracks its own peak at every push,
    # and within a request depth only rises (same-timestamp expiry is a
    # no-op after the first block), so the push-time peak equals the old
    # per-request sampled peak bit for bit.
    queue_peak = device.ftl.queue.depth_peak
    if emitter is not None:
        emitter.heartbeat(
            spec.index, spec.device_id, "tick",
            sim_time=device.clock.now, replayed=replayed, total=total,
            force=True,
        )
    device.tick(plan.duration)
    alarm_event = (
        device.detector.alarm_event if device.detector is not None else None
    )
    alarm_time = alarm_event.time if alarm_event is not None else None
    detection_latency = None
    if alarm_time is not None and run.has_ransomware and run.onset is not None:
        detection_latency = max(0.0, alarm_time - run.onset)
    events = device.detector.events if device.detector is not None else []
    record.update(
        has_ransomware=run.has_ransomware,
        onset=run.onset,
        requests_total=len(run.trace),
        requests_replayed=replayed,
        blocks_written=blocks_written,
        blocks_read=blocks_read,
        alarm_raised=alarm_time is not None,
        alarm_time=alarm_time,
        detection_latency=detection_latency,
        score_peak=max((event.score for event in events), default=0),
        slices_closed=len(events),
        dropped_writes=device.stats.dropped_writes,
        gc_runs=device.ftl.stats.gc_runs,
        gc_page_copies=device.ftl.stats.gc_page_copies,
        queue_peak=queue_peak,
    )
    record["verdict"] = classify_verdict(
        run.has_ransomware, record["alarm_raised"], None  # type: ignore[arg-type]
    )
    incident: Optional[Dict[str, object]] = None
    if flight:
        incident = (
            device.incidents[0] if device.incidents
            else device.snapshot_incident("fleet_triage")
        )
    if emitter is not None:
        if emitter.metrics:
            device.refresh_obs_metrics()
            emitter.emit_metrics(
                spec.index, spec.device_id, device.obs.metrics)
        if emitter.timeline:
            emitter.emit_trace(
                spec.index, spec.device_id, device.obs.tracer)
        emitter.heartbeat(
            spec.index, spec.device_id, "done",
            sim_time=device.clock.now, replayed=replayed, total=total,
            force=True,
        )
    return record, incident


# -- worker-pool plumbing (multiprocessing entry points) --------------------

_POOL_PLAN: Optional[FleetPlan] = None
_POOL_EMITTER: Optional[WorkerEmitter] = None


def pool_init(
    plan_payload: Dict[str, object],
    telemetry_payload: Optional[Dict[str, object]] = None,
    telemetry_queue: Optional[object] = None,
) -> None:
    """Pool initializer: rebuild the plan (and emitter) per worker.

    The telemetry queue rides through initargs because a
    ``multiprocessing.Queue`` is only picklable on the child-inheritance
    path — exactly what pool initializer arguments are.  One emitter per
    worker process: its interval gate then paces that worker's whole
    stream of devices, not each device separately.
    """
    global _POOL_PLAN, _POOL_EMITTER
    _POOL_PLAN = FleetPlan.from_dict(plan_payload)
    _POOL_EMITTER = None
    if telemetry_payload is not None and telemetry_queue is not None:
        from repro.fleet.telemetry import TelemetryConfig

        config = TelemetryConfig.from_dict(telemetry_payload)
        _POOL_EMITTER = config.build_emitter(
            telemetry_queue.put_nowait)  # type: ignore[attr-defined]


def pool_run(index: int) -> Dict[str, object]:
    """Pool task: derive and run device ``index`` under the worker plan."""
    assert _POOL_PLAN is not None, "pool_init must run first"
    spec = _POOL_PLAN.device_spec(index)
    record, _ = run_device(_POOL_PLAN, spec, emitter=_POOL_EMITTER)
    return record
