"""The probe: the one object the data path publishes domain events to.

The device, the Insider FTL and the detector call their probe, without
any check, where something worth reporting happens.  :class:`Probe` is
that vocabulary as no-ops (:data:`NULL_PROBE` is what an unobserved
device carries); :class:`Observability` fans each event out to the
tracer, metrics and flight recorder it holds.  Per-request and
per-queue-entry work is hooked in only by an armed bundle (see
:meth:`Observability.attach` and :meth:`Probe.queue_note`), so an
unobserved request makes no extra call.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.clock import SimClock
from repro.errors import ConfigError
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, EventTracer, NullTracer


class Probe:
    """Every domain event the data path publishes, as a no-op."""

    def attach(self, device) -> None:
        """``device`` finished building (armed probes hook requests here)."""

    def queue_note(self, queue) -> Optional[Callable]:
        """The per-entry callback for ``queue``'s ``log_run``, or None."""
        return None

    def slice_closed(self, detector, event) -> None:
        """The detector closed one slice (``event`` is its DetectionEvent)."""

    def slices_skipped(self, detector, features, verdict: int, score: int,
                       alarm: bool, first_index: int, count: int) -> None:
        """The detector fast-forwarded ``count`` identical idle slices."""

    def alarm(self, device, event) -> None:
        """The detector raised the alarm and the device locked down."""

    def idle(self, device) -> None:
        """The host advanced the clock without I/O."""

    def rollback_started(self, device) -> None:
        """``recover()`` is about to roll the mapping table back."""

    def rolled_back(self, device, report) -> None:
        """``recover()`` finished: the device is writable again."""

    def power_loss(self, device) -> None:
        """The scheduled power loss fired; the device is about to reboot."""

    def media_alarm(self, device, reason: str, lockdown: bool,
                    details: Dict[str, object]) -> None:
        """ECC or program retries ran out; the degraded latch is set."""

    def refresh(self, device) -> None:
        """Fold the device's current state into derived gauges."""

    def snapshot_incident(self, device, reason: str) -> Dict[str, object]:
        """Cut an incident bundle on demand; needs a flight recorder."""
        raise ConfigError(
            "no flight recorder armed; build the device with "
            "Observability.on(flight=FlightRecorder(...))"
        )

    def gc_started(self, ftl) -> None:
        """A garbage-collection pass begins."""

    def gc_finished(self, ftl, erased: Optional[int], now: float) -> None:
        """The pass ended, erasing ``erased`` blocks (None: it raised)."""

    def gc_victim(self, ftl, victim: Optional[int], now: float) -> None:
        """GC selected ``victim`` (None: nothing is reclaimable)."""

    def pages_copied(self, valid: int, pinned: int) -> None:
        """Relocation moved live pages and recovery-pinned old versions."""

    def block_erased(self) -> None:
        """A fully relocated block was erased."""

    def block_retired(self, ftl, block: int, moved: int, now: float) -> None:
        """A block was drained after a program failure and retired."""


#: The shared probe of every unobserved device.
NULL_PROBE = Probe()


#: (name, kind, help, options) of the families kept live as events arrive
#: (the detector's only on a device that has a detector).
LIVE_FAMILIES: Tuple[Tuple[str, str, str, Dict[str, object]], ...] = (
    ("ftl_gc_page_copies_total", "counter",
     "Pages relocated by garbage collection, by kind "
     "(valid = live data, pinned = recovery-queue old versions).",
     {"labelnames": ("kind",)}),
    ("ftl_erases_total", "counter", "Block erases completed.", {}),
    ("recovery_queue_depth", "gauge", "Backup entries currently queued.", {}),
    ("recovery_queue_pinned_pages", "gauge",
     "Old-version physical pages pinned against GC.", {}),
    ("recovery_queue_evictions_total", "counter",
     "Entries evicted early because the queue hit capacity "
     "(each one is in-window recovery coverage lost).", {}),
    # Depth counts start at 1, so one unit of resolution below is plenty.
    ("recovery_queue_occupancy", "loghistogram",
     "Queue depth sampled at every queue transition.", {"min_value": 1.0}),
    ("detector_slices_total", "counter",
     "Closed time slices, by tree verdict.", {"labelnames": ("verdict",)}),
    ("detector_score", "gauge",
     "Current sliding-window score (0..window size).", {}),
    ("detector_alarms_total", "counter", "Alarms raised.", {}),
    ("ssd_request_latency_seconds", "loghistogram",
     "Host wall-clock time servicing one submitted request, by opcode.",
     {"labelnames": ("mode",)}),
    ("ssd_requests_total", "counter", "Requests submitted, by opcode.",
     {"labelnames": ("mode",)}),
    ("ssd_blocks_total", "counter", "Logical blocks transferred, by opcode.",
     {"labelnames": ("mode",)}),
    ("ssd_dropped_writes_total", "counter",
     "Writes dropped by the read-only lockdown.", {}),
)

_LIVE_SPECS = {spec[0]: spec for spec in LIVE_FAMILIES}

#: (name, help, value) of the gauges :meth:`Observability.refresh` derives
#: from device state; registered on the first refresh.
DERIVED_GAUGES: Tuple[Tuple[str, str, Callable], ...] = (
    ("ftl_write_amplification", "(host writes + GC copies) / host writes.",
     lambda device: device.ftl.stats.write_amplification),
    ("ftl_utilization", "Fraction of logical space currently mapped.",
     lambda device: device.ftl.utilization()),
    ("ssd_recoveries", "Mapping-table rollbacks completed.",
     lambda device: len(device.rollback_reports)),
    ("nand_corrected_reads",
     "Reads with raw bit errors corrected by ECC (in-line or retry).",
     lambda device: device.nand.reliability.corrected_reads),
    ("nand_uncorrectable_reads",
     "Reads abandoned after the ECC retry budget (data lost).",
     lambda device: device.nand.reliability.uncorrectable_reads),
    ("ftl_bad_blocks", "Blocks retired as bad (factory + grown).",
     lambda device: device.ftl.allocator.retired_blocks),
)


class Observability(Probe):
    """The tracer + metrics + flight-recorder bundle.

    Args:
        tracer: A recording tracer; defaults to the no-op
            :data:`~repro.obs.tracer.NULL_TRACER`.
        metrics: A metrics registry; None keeps no metrics.
        flightrec: An optional :class:`~repro.obs.flightrec.FlightRecorder`
            capturing the last-N-seconds black box for incident bundles.
        snapshot_interval: Simulated seconds between automatic
            :meth:`~repro.obs.metrics.MetricsRegistry.record_snapshot`
            rows (``None`` disables periodic snapshots).

    Each piece is armed only when supplied.  One bundle observes one
    device.
    """

    def __init__(
        self,
        tracer: Optional[NullTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        flightrec: Optional[FlightRecorder] = None,
        snapshot_interval: Optional[float] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.flightrec = flightrec
        self.snapshot_interval = snapshot_interval
        self._last_snapshot: Optional[float] = None
        #: Open spans, with the counters/queue state they started from.
        self._gc_spans: List[Tuple[object, int, int]] = []
        self._rollback: Tuple[object, object] = (None, None)

    @classmethod
    def on(
        cls,
        max_events: Optional[int] = None,
        flight: Optional[FlightRecorder] = None,
        snapshot_interval: Optional[float] = None,
    ) -> "Observability":
        """A recording tracer and a fresh registry, plus the extras given."""
        return cls(
            tracer=EventTracer(max_events=max_events),
            metrics=MetricsRegistry(),
            flightrec=flight,
            snapshot_interval=snapshot_interval,
        )

    def bind_clock(self, clock: SimClock) -> None:
        """Point the tracer's simulated timestamps at ``clock``."""
        if isinstance(self.tracer, EventTracer):
            self.tracer.bind_clock(clock)

    def attach(self, device) -> None:
        """Bind the clock, register live families, hook armed requests."""
        self.bind_clock(device.clock)
        detector = device.detector
        if self.metrics is not None:
            for name in _LIVE_SPECS:
                if detector is not None or not name.startswith("detector_"):
                    self._series(name)
        # The wrappers look the original up on the class at each call, so
        # a LayerProfiler armed later still times it.
        fr = self.flightrec
        if fr is not None and detector is not None:
            detector.observe = partial(self._observe_header, device)
        if (self.tracer.enabled or self.metrics is not None
                or self.snapshot_interval is not None or fr is not None):
            device._execute = partial(self._execute, device)

    def queue_note(self, queue) -> Optional[Callable]:
        """A callback folding each logged entry into the armed sinks."""
        if (self.tracer.enabled or self.metrics is not None
                or self.flightrec is not None):
            return partial(self._queue_changed, queue)
        return None

    def _series(self, name: str):
        """The live family ``name`` (the registry registers it once)."""
        _, kind, help_text, options = _LIVE_SPECS[name]
        return getattr(self.metrics, kind)(name, help_text, **options)

    def _record(self, kind: str, now: float, **fields) -> None:
        """Keep one firmware event in the flight recorder, if armed."""
        if self.flightrec is not None:
            self.flightrec.record_event(kind, now, **fields)

    def _snapshot_if_due(self, device) -> None:
        """Refresh the gauges and record a registry row once per interval."""
        now = device.clock.now
        last = self._last_snapshot
        if self.metrics is None or (
                last is not None and now - last < self.snapshot_interval):
            return
        self.refresh(device)
        self.metrics.record_snapshot(now, wall_time=perf_counter())
        self._last_snapshot = now

    def _execute(self, device, request, payload=None):
        """One host request under the request span, counters and snapshots."""
        if self.snapshot_interval is not None:
            self._snapshot_if_due(device)
        execute = type(device)._execute
        if self.flightrec is not None and device.detector is None:
            self._note_request(device, request)
        tracer = self.tracer
        if not tracer.enabled and self.metrics is None:
            return execute(device, request, payload)
        mode = request.mode.value
        start = perf_counter()
        with tracer.span("ssd.request", category="io", mode=mode,
                         lba=request.lba, length=request.length):
            result = execute(device, request, payload)
        if self.metrics is not None:
            self._series("ssd_request_latency_seconds").observe(
                perf_counter() - start, mode=mode)
            self._series("ssd_requests_total").inc(mode=mode)
            self._series("ssd_blocks_total").inc(request.length, mode=mode)
        tracer.counter("recovery_queue_depth", len(device.ftl.queue),
                       category="queue")
        return result

    def _observe_header(self, device, request) -> None:
        """The recorder keeps the header once the detector has read it, so
        an alarm incident cut inside ``observe`` predates it."""
        detector = device.detector
        type(detector).observe(detector, request)
        self._note_request(device, request)

    def _note_request(self, device, request) -> None:
        self.flightrec.record_request(request)
        queue = device.ftl.queue
        self.flightrec.sample_queue(request.time, len(queue),
                                    queue.pinned_count)

    def _queue_changed(self, queue, expired, evicted, entry) -> None:
        """Fold one queue append into the tracer, gauges and recorder."""
        timestamp = entry.timestamp
        tracer = self.tracer
        if tracer.enabled:
            if entry.old_ppa is not None:
                tracer.instant("queue.pin", category="queue",
                               sim_time=timestamp)
            if expired:
                tracer.instant("queue.expire", category="queue",
                               sim_time=timestamp, entries=len(expired))
            for evictee in evicted:
                tracer.instant("queue.evict", category="queue",
                               sim_time=timestamp, lba=evictee.lba)
        if self.metrics is not None:
            if evicted:
                self._series("recovery_queue_evictions_total").inc(
                    len(evicted))
            self._series("recovery_queue_depth").set(len(queue))
            self._series("recovery_queue_pinned_pages").set(
                queue.pinned_count)
            self._series("recovery_queue_occupancy").observe(len(queue))
        if self.flightrec is not None:
            if evicted:
                # Each early eviction is in-window recovery coverage lost;
                # the incident report calls these out next to the headroom.
                self._record("queue_evictions", timestamp,
                             entries=len(evicted))
            self.flightrec.sample_queue(timestamp, len(queue),
                                        queue.pinned_count)

    # -- detector --------------------------------------------------------------

    def slice_closed(self, detector, event) -> None:
        """Attribute the slice, count its verdict, trace its features."""
        features = event.features
        fr = self.flightrec
        if fr is not None:
            # Attributed before the alarm hook runs: the incident cut by
            # the hook must already see the alarming slice's path.  Near
            # misses are judged against this detector's threshold.
            fr.attribution.threshold = detector.config.threshold
            fr.attribution.record(
                detector.tree, features.as_dict(), features.as_tuple(),
                event.time, event.slice_index, event.verdict, event.score,
                event.alarm,
            )
        if self.metrics is not None:
            self._series("detector_slices_total").inc(verdict=event.verdict)
            self._series("detector_score").set(event.score)
        if self.tracer.enabled:
            self.tracer.instant(
                "detector.slice", category="detector",
                sim_time=event.time, slice_index=event.slice_index,
                verdict=event.verdict, score=event.score,
                **features.as_dict(),
            )

    def slices_skipped(self, detector, features, verdict, score, alarm,
                       first_index, count) -> None:
        """Record the fast-forwarded gap as ``count`` identical slices."""
        duration = detector.config.slice_duration
        fr = self.flightrec
        if fr is not None:
            fr.attribution.threshold = detector.config.threshold
            fr.attribution.record_repeat(
                detector.tree, features.as_dict(), features.as_tuple(),
                verdict, score, alarm, first_index=first_index, count=count,
                slice_duration=duration,
            )
        if self.metrics is not None:
            self._series("detector_slices_total").inc(count, verdict=verdict)
            self._series("detector_score").set(score)
        self.tracer.instant(
            "detector.fast_forward", category="detector",
            sim_time=(first_index + count) * duration,
            slices=count, verdict=verdict, score=score,
        )

    # -- device ----------------------------------------------------------------

    def alarm(self, device, event) -> None:
        """Count the alarm, trace it and the lockdown, cut an incident."""
        threshold = device.detector.config.threshold
        if self.metrics is not None:
            self._series("detector_alarms_total").inc()
        fields = {"slice_index": event.slice_index, "score": event.score}
        self.tracer.instant("detector.alarm", category="detector",
                            sim_time=event.time, **fields,
                            threshold=threshold)
        self.tracer.instant("ssd.lockdown", category="recovery",
                            sim_time=event.time, **fields)
        if self.flightrec is not None:
            # The alarming slice was attributed before this hook ran, so
            # the bundle's attribution ring ends on the path that raised
            # the score past threshold.
            self._cut_incident(device, "alarm", event.time,
                               {**fields, "threshold": threshold})

    def idle(self, device) -> None:
        """Take a registry snapshot if one is due."""
        if self.snapshot_interval is not None:
            self._snapshot_if_due(device)

    def rollback_started(self, device) -> None:
        """Open the rollback span; freeze the queue state it drains."""
        span = self.tracer.span("ssd.rollback", category="recovery")
        span.__enter__()
        # The incident bundle reports the headroom the recovery had.
        self._rollback = (span, _queue_state(device))

    def rolled_back(self, device, report) -> None:
        """Close the rollback span, log it, annotate the incident."""
        span, queue_state = self._rollback
        counts = {name: getattr(report, name) for name in (
            "entries_scanned", "entries_applied", "lbas_restored",
            "lbas_unmapped")}
        for key, value in counts.items():
            span.set(key, value)
        span.__exit__(None, None, None)
        now = device.clock.now
        self._record("rollback", now, **counts)
        if self.flightrec is not None and device.incidents:
            # Annotate the incident that triggered this recovery with
            # what the rollback did and the queue state it drained.
            device.incidents[-1]["rollback"] = {
                "time": now, "queue_at_rollback": queue_state, **counts,
                "mapping_updates": report.mapping_updates,
            }
        self.refresh(device)

    def power_loss(self, device) -> None:
        """Trace and log the power cut."""
        now = device.clock.now
        self.tracer.instant("ssd.power_loss", category="reliability",
                            sim_time=now)
        self._record("power_loss", now)

    def media_alarm(self, device, reason, lockdown, details) -> None:
        """Trace and log the media alarm, then cut an incident."""
        now = device.clock.now
        fields = {"reason": reason, "lockdown": lockdown, **details}
        self.tracer.instant("ssd.media_alarm", category="reliability",
                            sim_time=now, **fields)
        self._record("media_alarm", now, **fields)
        if self.flightrec is not None:
            self._cut_incident(device, "media_alarm", now, {
                "cause": reason, "lockdown": lockdown, **details})

    def refresh(self, device) -> None:
        """Recompute the derived gauges and the dropped-writes counter."""
        metrics = self.metrics
        if metrics is None:
            return
        queue = device.ftl.queue
        self._series("recovery_queue_depth").set(len(queue))
        self._series("recovery_queue_pinned_pages").set(queue.pinned_count)
        for name, help_text, value in DERIVED_GAUGES:
            metrics.gauge(name, help_text).set(value(device))
        if device.detector is not None:
            self._series("detector_score").set(device.detector.score)
        dropped = self._series("ssd_dropped_writes_total")
        missing = device.stats.dropped_writes - dropped.value()
        if missing:
            dropped.inc(missing)

    def snapshot_incident(self, device, reason):
        """Cut an incident bundle now (needs a flight recorder)."""
        if self.flightrec is None:
            return super().snapshot_incident(device, reason)
        return self._cut_incident(device, reason, device.clock.now)

    def _cut_incident(self, device, trigger, sim_time, details=None):
        """Snapshot the flight recorder + live device state into a bundle."""
        bundle = self.flightrec.snapshot(
            trigger, sim_time, details=details, extra=_incident_state(device)
        )
        device.incidents.append(bundle)
        self.tracer.instant("ssd.incident_snapshot", category="recovery",
                            sim_time=sim_time, trigger=trigger)
        return bundle

    # -- FTL -------------------------------------------------------------------

    def gc_started(self, ftl) -> None:
        """Open the GC span at the current copy counters."""
        span = self.tracer.span("ftl.gc", category="gc")
        span.__enter__()
        self._gc_spans.append(
            (span, ftl.stats.gc_page_copies, ftl.stats.gc_pinned_copies))

    def gc_finished(self, ftl, erased, now) -> None:
        """Close the GC span with what the pass did; log real passes."""
        span, copies, pinned = self._gc_spans.pop()
        if erased is not None:
            counts = {
                "erased": erased,
                "page_copies": ftl.stats.gc_page_copies - copies,
                "pinned_copies": ftl.stats.gc_pinned_copies - pinned,
            }
            for key, value in counts.items():
                span.set(key, value)
        span.__exit__(None, None, None)
        if erased:
            self._record("gc", now, **counts)

    def gc_victim(self, ftl, victim, now) -> None:
        """Trace the victim with its valid/invalid page counts."""
        if victim is not None and self.tracer.enabled:
            block = ftl.nand.block(victim)
            self.tracer.instant(
                "ftl.gc_victim", category="gc", sim_time=now, block=victim,
                valid=block.valid_count, invalid=block.invalid_count,
            )

    def pages_copied(self, valid, pinned) -> None:
        """Count relocated pages by kind."""
        if self.metrics is not None:
            copies = self._series("ftl_gc_page_copies_total")
            if valid:
                copies.inc(valid, kind="valid")
            if pinned:
                copies.inc(pinned, kind="pinned")

    def block_erased(self) -> None:
        """Count the erase."""
        if self.metrics is not None:
            self._series("ftl_erases_total").inc()

    def block_retired(self, ftl, block, moved, now) -> None:
        """Trace and log the retirement."""
        self.tracer.instant("ftl.block_retired", category="reliability",
                            sim_time=now, block=block, pages_moved=moved)
        self._record("block_retired", now, block=block, pages_moved=moved)


def _queue_state(device) -> Dict[str, object]:
    """Recovery-queue occupancy and headroom, JSON-ready."""
    queue = device.ftl.queue
    depth, capacity = len(queue), queue.capacity
    return {
        "depth": depth,
        "capacity": capacity,
        "headroom": capacity - depth if capacity is not None else None,
        "pinned_pages": queue.pinned_count,
        "evictions": queue.evictions,
        "retention_seconds": queue.retention,
        "memory_bytes": queue.memory_bytes(),
    }


def _incident_state(device) -> Dict[str, object]:
    """The live-state sections stamped into every incident bundle."""
    detector_section: Optional[Dict[str, object]] = None
    detector = device.detector
    if detector is not None:
        alarm = detector.alarm_event
        detector_section = {
            "config": {
                "slice_duration": detector.config.slice_duration,
                "window_slices": detector.config.window_slices,
                "threshold": detector.config.threshold,
            },
            "score": detector.score,
            "window": detector.window.snapshot(),
            "fast_forwarded_slices": detector.fast_forwarded_slices,
            "alarm_event": None if alarm is None else {
                "time": alarm.time,
                "slice_index": alarm.slice_index,
                "score": alarm.score,
            },
        }
    counters = ("reads", "writes", "dropped_writes", "failed_writes",
                "uncorrectable_reads", "unmapped_reads", "power_losses")
    return {
        "device": {
            "read_only": device.read_only,
            "degraded": device.degraded,
            **{name: getattr(device.stats, name) for name in counters},
        },
        "detector": detector_section,
        "recovery_queue": _queue_state(device),
        "faults": (
            device.fault_injector.stats.as_dict()
            if device.fault_injector is not None else None
        ),
    }


__all__ = ["DERIVED_GAUGES", "LIVE_FAMILIES", "NULL_PROBE", "Observability", "Probe"]
