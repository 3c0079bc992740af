"""The fleet telemetry plane: live cross-process metrics and heartbeats.

A fleet run (:mod:`repro.fleet.orchestrator`) is a black box without this
module: worker processes emit nothing until a finished device record lands
in the reorder buffer, so a 500-device sweep offers no live progress, no
straggler detection, and no way to see cross-device phenomena while they
happen.  This module is the *observation side channel* that fixes that,
built from three pieces:

* :class:`WorkerEmitter` — lives inside a worker process (or the
  in-process sequential loop) and periodically ships compact, mergeable
  telemetry **messages** through a caller-supplied sink: heartbeats
  (device id, phase, sim-time, requests replayed), registry snapshots
  (:meth:`~repro.obs.metrics.MetricsRegistry.to_compact` — the mergeable
  form the fleet report already uses), and, at device completion, the
  device's bounded :class:`~repro.obs.tracer.EventTracer` ring for the
  fleet timeline.  Emission is wall-interval gated and **never raises**:
  a telemetry failure must not sink a device run.
* :class:`FleetCollector` — lives in the orchestrator and folds incoming
  messages into a live fleet view: per-device progress, devices/sec,
  verdict counts, merged population metrics, and a stall/straggler
  watchdog (:meth:`FleetCollector.stalled`) that flags devices whose
  heartbeat age exceeds a threshold.  The view exports as a
  ``ssd-insider.fleettop/v1`` JSON snapshot, a Prometheus registry
  (:meth:`FleetCollector.fleet_registry`), and a ``top``-style terminal
  rendering (:func:`render_top`).
* :func:`stitch_chrome_trace` — merges the per-device event streams into
  one Chrome/Perfetto trace with one *process track per device*, on the
  shared **simulated** clock (so cross-device phenomena like alarm storms
  line up), with each event's host wall timestamps preserved in ``args``.

The plane is strictly observational.  Telemetry messages carry wall-clock
stamps and arrive in nondeterministic order, so nothing here may feed
back into device records or the fleet file — the byte-identity of
``ssd-insider.fleetrec/v1`` output with telemetry armed vs. off is
asserted by ``tests/test_fleet_telemetry.py`` and the CI fleet-smoke job,
the same contract the flight recorder and profiler already honour.
"""

from __future__ import annotations

from time import time as wall_time
from typing import Callable, Dict, List, Mapping, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import EventTracer

#: Schema stamped into the collector's JSON snapshot documents.
FLEETTOP_SCHEMA = "ssd-insider.fleettop/v1"

#: Schema stamped into individual telemetry messages.
MESSAGE_SCHEMA = "ssd-insider.fleettelemetry/v1"

#: Worker phases, in lifecycle order (heartbeats at each transition).
PHASES = ("build", "replay", "tick", "done")

#: Default minimum wall seconds between non-forced worker emissions.
DEFAULT_EMIT_INTERVAL = 0.5

#: Default heartbeat age (wall seconds) past which a device counts as
#: stalled.  Generous: a fleet device takes single-digit seconds, so a
#: worker silent for 10x that is wedged, not slow.
DEFAULT_STALL_TIMEOUT = 30.0

#: A telemetry sink: consumes one message dict, cross-process or local.
Sink = Callable[[Dict[str, object]], None]


# -- worker side -------------------------------------------------------------


def tracer_events_payload(tracer: EventTracer) -> List[Dict[str, object]]:
    """One tracer's events as plain dicts (picklable, JSON-model).

    The wire form keeps both clocks verbatim — wall µs since the tracer's
    epoch and the simulated timestamp — so the stitcher can rebase either
    axis without loss.
    """
    payload: List[Dict[str, object]] = []
    for event in tracer.events:
        payload.append({
            "name": event.name,
            "category": event.category,
            "phase": event.phase,
            "wall_ts_us": event.wall_ts_us,
            "wall_dur_us": event.wall_dur_us,
            "sim_ts": event.sim_ts,
            "sim_dur": event.sim_dur,
            "args": dict(event.args),
        })
    return payload


class WorkerEmitter:
    """Ships telemetry messages from inside one worker, best-effort.

    Args:
        sink: Where messages go — a queue ``put_nowait`` wrapper for pool
            workers, the collector's ``ingest`` for in-process runs.
        interval: Minimum wall seconds between *non-forced* emissions.
            Phase transitions always emit (``force=True``).
        timeline: Arm a bounded per-device :class:`EventTracer` on each
            device and ship its ring at completion.
        timeline_events: Ring capacity per device (``drop_oldest``, so the
            *end* of the run — where alarms live — is what survives).
        metrics: Arm a per-device :class:`MetricsRegistry` and ship its
            compact form alongside interval heartbeats.
        clock: Wall clock (epoch seconds); injectable for tests.

    Every send is wrapped: a sink that raises (full queue, dead pipe)
    increments :attr:`dropped` and the device run continues untouched.
    """

    def __init__(
        self,
        sink: Sink,
        interval: float = DEFAULT_EMIT_INTERVAL,
        timeline: bool = False,
        timeline_events: int = 512,
        metrics: bool = True,
        clock: Callable[[], float] = wall_time,
    ) -> None:
        self.sink = sink
        self.interval = float(interval)
        self.timeline = bool(timeline)
        self.timeline_events = int(timeline_events)
        self.metrics = bool(metrics)
        self.clock = clock
        #: Messages lost to sink failures (never raised to the caller).
        self.dropped = 0
        #: Messages successfully handed to the sink.
        self.sent = 0
        self._last_emit: Optional[float] = None

    def _send(self, message: Dict[str, object]) -> bool:
        message["schema"] = MESSAGE_SCHEMA
        message["wall_time"] = self.clock()
        try:
            self.sink(message)
        except Exception:  # noqa: BLE001 - telemetry must never sink a run
            self.dropped += 1
            return False
        self.sent += 1
        return True

    def heartbeat(
        self,
        index: int,
        device_id: str,
        phase: str,
        sim_time: float = 0.0,
        replayed: int = 0,
        total: int = 0,
        force: bool = False,
    ) -> bool:
        """Emit one heartbeat if forced or the interval elapsed.

        Returns True when a message was actually sent — the worker uses
        this to piggyback a metrics snapshot on the same gate instead of
        keeping a second timer.
        """
        now = self.clock()
        if not force and self._last_emit is not None \
                and now - self._last_emit < self.interval:
            return False
        self._last_emit = now
        return self._send({
            "kind": "heartbeat",
            "index": int(index),
            "device_id": str(device_id),
            "phase": str(phase),
            "sim_time": float(sim_time),
            "replayed": int(replayed),
            "total": int(total),
        })

    def emit_metrics(
        self, index: int, device_id: str, registry: MetricsRegistry
    ) -> bool:
        """Ship one device registry in its compact mergeable form."""
        if not self.metrics:
            return False
        return self._send({
            "kind": "metrics",
            "index": int(index),
            "device_id": str(device_id),
            "registry": registry.to_compact(),
        })

    def emit_trace(
        self, index: int, device_id: str, tracer: EventTracer
    ) -> bool:
        """Ship one device's (ring-bounded) event stream for the timeline."""
        if not self.timeline:
            return False
        return self._send({
            "kind": "trace",
            "index": int(index),
            "device_id": str(device_id),
            "events": tracer_events_payload(tracer),
            "events_dropped": tracer.dropped,
        })


# -- orchestrator side -------------------------------------------------------


class FleetCollector:
    """The orchestrator's live fleet view, fed by telemetry messages.

    Thread-compatible by construction: :meth:`ingest`,
    :meth:`record_done`, and the read-side methods each take the internal
    lock, so a drainer thread and a rendering loop can share one
    collector.

    Args:
        devices_total: Fleet size (denominator for progress).
        stall_timeout: Heartbeat age (wall seconds) past which an
            in-flight device is flagged by the watchdog.
        clock: Wall clock (epoch seconds); injectable so tests can age
            heartbeats artificially.
    """

    def __init__(
        self,
        devices_total: int,
        stall_timeout: float = DEFAULT_STALL_TIMEOUT,
        clock: Callable[[], float] = wall_time,
    ) -> None:
        import threading

        self.devices_total = int(devices_total)
        self.stall_timeout = float(stall_timeout)
        self.clock = clock
        self.started = clock()
        self._lock = threading.Lock()
        #: index -> live per-device state (phase, sim_time, heartbeat age).
        self._devices: Dict[int, Dict[str, object]] = {}
        #: index -> latest compact registry payload shipped by the worker.
        self._registries: Dict[int, Mapping[str, object]] = {}
        #: index -> shipped trace payload for the fleet timeline.
        self._traces: Dict[int, Dict[str, object]] = {}
        self.devices_done = 0
        self.verdicts: Dict[str, int] = {}
        self.heartbeats = 0
        self.messages = 0
        #: Devices ever flagged by the watchdog (sticky, for post-run
        #: reporting even after the straggler finally finishes).
        self.stall_flags: Dict[int, float] = {}

    # -- ingest ------------------------------------------------------------

    def _entry(self, index: int, device_id: object) -> Dict[str, object]:
        entry = self._devices.get(index)
        if entry is None:
            entry = {
                "index": index,
                "device_id": str(device_id),
                "phase": "build",
                "sim_time": 0.0,
                "replayed": 0,
                "total": 0,
                "last_heartbeat": self.clock(),
                "verdict": None,
            }
            self._devices[index] = entry
        return entry

    def ingest(self, message: Mapping[str, object]) -> None:
        """Fold one telemetry message into the live view."""
        kind = message.get("kind")
        index = int(message.get("index", -1))  # type: ignore[arg-type]
        with self._lock:
            self.messages += 1
            entry = self._entry(index, message.get("device_id", "?"))
            stamp = message.get("wall_time")
            entry["last_heartbeat"] = (
                float(stamp) if stamp is not None  # type: ignore[arg-type]
                else self.clock()
            )
            if kind == "heartbeat":
                self.heartbeats += 1
                entry["phase"] = str(message.get("phase", "?"))
                entry["sim_time"] = float(message.get("sim_time", 0.0))  # type: ignore[arg-type]
                entry["replayed"] = int(message.get("replayed", 0))  # type: ignore[arg-type]
                entry["total"] = int(message.get("total", 0))  # type: ignore[arg-type]
            elif kind == "metrics":
                registry = message.get("registry")
                if isinstance(registry, Mapping):
                    self._registries[index] = registry
            elif kind == "trace":
                self._traces[index] = {
                    "device_id": str(message.get("device_id", "?")),
                    "events": list(message.get("events", ())),  # type: ignore[arg-type]
                    "events_dropped": int(
                        message.get("events_dropped", 0)),  # type: ignore[arg-type]
                }

    def record_done(self, record: Mapping[str, object]) -> None:
        """Mark one device finished from its completed fleet record.

        Fed by the orchestrator's result loop, so progress and verdicts
        stay correct even for workers whose emitter never got through.
        """
        index = int(record.get("index", -1))  # type: ignore[arg-type]
        verdict = str(record.get("verdict", "clean"))
        with self._lock:
            entry = self._entry(index, record.get("device_id", "?"))
            entry["phase"] = "done"
            entry["verdict"] = verdict
            entry["last_heartbeat"] = self.clock()
            replayed = record.get("requests_replayed")
            if replayed is not None:
                entry["replayed"] = int(replayed)  # type: ignore[arg-type]
            self.devices_done += 1
            self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1

    # -- watchdog ----------------------------------------------------------

    def stalled(self, now: Optional[float] = None) -> List[Dict[str, object]]:
        """In-flight devices whose heartbeat age exceeds the threshold.

        Each returned row carries the device's last known state plus its
        ``heartbeat_age``.  Flagged indices latch into
        :attr:`stall_flags` so a straggler that eventually completes is
        still visible in the post-run snapshot.
        """
        current = self.clock() if now is None else now
        flagged: List[Dict[str, object]] = []
        with self._lock:
            for index in sorted(self._devices):
                entry = self._devices[index]
                if entry["phase"] == "done":
                    continue
                age = current - float(entry["last_heartbeat"])  # type: ignore[arg-type]
                if age > self.stall_timeout:
                    self.stall_flags[index] = max(
                        age, self.stall_flags.get(index, 0.0))
                    row = dict(entry)
                    row["heartbeat_age"] = age
                    flagged.append(row)
        return flagged

    # -- read side ---------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Wall seconds since the collector was created."""
        return self.clock() - self.started

    @property
    def devices_per_sec(self) -> float:
        """Completed devices per wall second so far."""
        elapsed = self.elapsed
        return self.devices_done / elapsed if elapsed > 0 else 0.0

    def in_flight(self) -> List[Dict[str, object]]:
        """Devices with telemetry that have not completed, index order."""
        now = self.clock()
        with self._lock:
            rows = []
            for index in sorted(self._devices):
                entry = self._devices[index]
                if entry["phase"] == "done":
                    continue
                row = dict(entry)
                row["heartbeat_age"] = \
                    now - float(entry["last_heartbeat"])  # type: ignore[arg-type]
                rows.append(row)
            return rows

    def merged_registry(self) -> MetricsRegistry:
        """Latest worker registries merged in device-index order.

        This is the *live* population view; unlike the post-run report
        aggregation it reflects whatever snapshots have arrived so far
        and makes no bit-reproducibility claim (arrival order and
        staleness vary run to run — that is why it never feeds the fleet
        file).
        """
        with self._lock:
            payloads = [self._registries[i] for i in sorted(self._registries)]
        merged = MetricsRegistry()
        for payload in payloads:
            merged.merge(MetricsRegistry.from_compact(payload))
        return merged

    def fleet_registry(self) -> MetricsRegistry:
        """Merged worker metrics plus fleet-level progress families."""
        registry = self.merged_registry()
        with self._lock:
            done = self.devices_done
            verdicts = dict(self.verdicts)
            heartbeats = self.heartbeats
            in_flight = sum(1 for entry in self._devices.values()
                            if entry["phase"] != "done")
            stall_count = len(self.stall_flags)
        registry.gauge(
            "fleet_devices", "Fleet devices by progress state.",
            labelnames=("state",),
        ).set(float(self.devices_total), state="total")
        progress = registry.get("fleet_devices")
        progress.set(float(done), state="done")  # type: ignore[union-attr, attr-defined]
        progress.set(float(in_flight), state="in_flight")  # type: ignore[union-attr, attr-defined]
        registry.gauge(
            "fleet_devices_per_sec",
            "Completed devices per wall second (live).",
        ).set(self.devices_per_sec)
        registry.gauge(
            "fleet_wall_seconds", "Wall seconds since the run started.",
        ).set(self.elapsed)
        registry.gauge(
            "fleet_stalled_devices",
            "Devices ever flagged by the heartbeat watchdog.",
        ).set(float(stall_count))
        counter = registry.counter(
            "fleet_heartbeats_total", "Worker heartbeats received.")
        counter.inc(float(heartbeats))
        if verdicts:
            family = registry.counter(
                "fleet_verdict_devices_total",
                "Completed devices by verdict (live).",
                labelnames=("verdict",),
            )
            for verdict in sorted(verdicts):
                family.inc(float(verdicts[verdict]), verdict=verdict)
        return registry

    def trace_payloads(self) -> Dict[int, Dict[str, object]]:
        """Shipped per-device trace payloads (index -> payload)."""
        with self._lock:
            return {index: dict(payload)
                    for index, payload in self._traces.items()}

    def snapshot(self, done: bool = False) -> Dict[str, object]:
        """The live view as one ``ssd-insider.fleettop/v1`` document."""
        stalled = self.stalled()
        in_flight = self.in_flight()
        with self._lock:
            doc: Dict[str, object] = {
                "schema": FLEETTOP_SCHEMA,
                "generated_unix": self.clock(),
                "elapsed_s": self.elapsed,
                "done": bool(done),
                "devices": {
                    "total": self.devices_total,
                    "done": self.devices_done,
                    "in_flight": len(in_flight),
                },
                "devices_per_sec": self.devices_per_sec,
                "verdicts": dict(sorted(self.verdicts.items())),
                "heartbeats": self.heartbeats,
                "messages": self.messages,
                "stall_timeout_s": self.stall_timeout,
                "in_flight": in_flight,
                "stalled": stalled,
                "stall_flags": {
                    str(index): age
                    for index, age in sorted(self.stall_flags.items())
                },
                "traces_collected": len(self._traces),
            }
        return doc


# -- rendering ---------------------------------------------------------------


def render_top(snapshot: Mapping[str, object]) -> str:
    """``top``-style terminal rendering of one fleettop snapshot.

    Pure on the snapshot document so the live view inside ``fleet run``
    and the standalone ``fleet top`` reader produce identical output.
    """
    devices = snapshot.get("devices", {})
    total = int(devices.get("total", 0))  # type: ignore[union-attr, arg-type]
    done = int(devices.get("done", 0))  # type: ignore[union-attr, arg-type]
    pct = (100.0 * done / total) if total else 0.0
    lines = [
        f"fleet top — {done}/{total} devices done ({pct:.0f}%), "
        f"{float(snapshot.get('devices_per_sec', 0.0)):.2f} devices/s, "  # type: ignore[arg-type]
        f"elapsed {float(snapshot.get('elapsed_s', 0.0)):.1f}s"  # type: ignore[arg-type]
        + ("  [run complete]" if snapshot.get("done") else ""),
    ]
    verdicts = snapshot.get("verdicts", {})
    if verdicts:
        lines.append("verdicts: " + "  ".join(
            f"{name}={count}"
            for name, count in sorted(verdicts.items())))  # type: ignore[union-attr]
    in_flight = list(snapshot.get("in_flight", ()))  # type: ignore[arg-type]
    lines.append("")
    if in_flight:
        lines.append(f"in flight ({len(in_flight)}):")
        lines.append(f"  {'device':<14} {'phase':<7} {'sim_time':>9} "
                     f"{'replayed':>17} {'hb age':>7}")
        for row in in_flight:
            replayed = f"{row.get('replayed', 0)}/{row.get('total', 0)}"
            lines.append(
                f"  {str(row.get('device_id', '?')):<14} "
                f"{str(row.get('phase', '?')):<7} "
                f"{float(row.get('sim_time', 0.0)):>8.1f}s "
                f"{replayed:>17} "
                f"{float(row.get('heartbeat_age', 0.0)):>6.1f}s"
            )
    else:
        lines.append("in flight: none")
    stalled = list(snapshot.get("stalled", ()))  # type: ignore[arg-type]
    timeout = float(snapshot.get("stall_timeout_s", 0.0))  # type: ignore[arg-type]
    if stalled:
        lines.append("")
        lines.append(f"STALLED (> {timeout:.1f}s without heartbeat):")
        for row in stalled:
            lines.append(
                f"  {row.get('device_id')}  phase {row.get('phase')}  "
                f"silent {float(row.get('heartbeat_age', 0.0)):.1f}s"
            )
    else:
        lines.append(f"stalled (> {timeout:.1f}s silent): none")
    return "\n".join(lines)


# -- the unified fleet timeline ----------------------------------------------


def stitch_chrome_trace(
    traces: Mapping[int, Mapping[str, object]],
    clock: str = "sim",
) -> Dict[str, object]:
    """Stitch per-device event streams into one Chrome/Perfetto trace.

    Each device becomes its own *process* track (``pid`` = device index
    + 1, named after the device id) so the Perfetto UI shows the fleet as
    parallel swimlanes.  With ``clock="sim"`` (the default) the horizontal
    axis is the **shared simulated clock** — devices that alarmed in the
    same simulated second line up visually, which is what makes an alarm
    storm one scrollable picture — and each event's host wall timestamps
    ride along in ``args`` (the dual-clock convention of
    :mod:`repro.obs.tracer`, axes swapped).  ``clock="wall"`` keeps the
    single-device convention: wall drives the axis, sim stays in ``args``.

    Args:
        traces: Device index -> payload with ``device_id`` and ``events``
            (the wire form of :func:`tracer_events_payload`).
        clock: ``"sim"`` or ``"wall"`` — which clock drives ``ts``.
    """
    if clock not in ("sim", "wall"):
        raise ValueError(f"clock must be 'sim' or 'wall', got {clock!r}")
    events: List[Dict[str, object]] = []
    total_dropped = 0
    for index in sorted(traces):
        payload = traces[index]
        pid = int(index) + 1
        device_id = str(payload.get("device_id", "?"))
        total_dropped += int(payload.get("events_dropped", 0))  # type: ignore[arg-type]
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"device {device_id} (#{index})"},
        })
        events.append({
            "name": "process_sort_index", "ph": "M", "pid": pid, "tid": 0,
            "args": {"sort_index": int(index)},
        })
        for row in payload.get("events", ()):  # type: ignore[union-attr]
            sim_ts = row.get("sim_ts")
            wall_ts = float(row.get("wall_ts_us", 0.0))
            wall_dur = float(row.get("wall_dur_us", 0.0))
            args = dict(row.get("args", {}))
            if clock == "sim":
                if sim_ts is None:
                    # No simulated stamp to place it on the shared axis;
                    # park it at t=0 rather than inventing one.
                    ts, dur = 0.0, 0.0
                else:
                    ts = float(sim_ts) * 1e6
                    sim_dur = row.get("sim_dur")
                    dur = float(sim_dur) * 1e6 if sim_dur is not None else 0.0
                args["wall_ts_us"] = round(wall_ts, 3)
                if row.get("phase") == "X":
                    args["wall_dur_us"] = round(wall_dur, 3)
            else:
                ts, dur = wall_ts, wall_dur
                if sim_ts is not None:
                    args["sim_time_s"] = round(float(sim_ts), 9)
            event: Dict[str, object] = {
                "name": row.get("name", "?"),
                "cat": row.get("category") or "repro",
                "ph": row.get("phase", "i"),
                "ts": ts,
                "pid": pid,
                "tid": 1,
                "args": args,
            }
            if row.get("phase") == "X":
                event["dur"] = dur
            if row.get("phase") == "i":
                event["s"] = "t"
            events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs.telemetry",
            "clock": clock,
            "devices": len(traces),
            "events": len(events),
            "events_dropped_in_workers": total_dropped,
        },
    }
