"""The simulated SSD device: detector-in-the-data-path + recoverable FTL.

Request flow (mirroring the paper's firmware):

1. the request *header* is handed to the detector (payloads are never
   inspected);
2. the operation executes through the Insider FTL (out-of-place writes,
   recovery-queue logging, GC as needed);
3. if the detector's score crosses the threshold, the device raises the
   alarm, goes **read-only** — "ignoring all the writes sent to it"
   (§III-C) — and waits for the host to either :meth:`SimulatedSSD.recover`
   (mapping-table rollback) or :meth:`SimulatedSSD.dismiss_alarm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.blockdev.request import IOMode, IORequest
from repro.clock import SimClock
from repro.core.detector import DetectionEvent, RansomwareDetector
from repro.core.id3 import DecisionTree
from repro.errors import (
    AddressError,
    ConfigError,
    DeviceReadOnlyError,
    ExhaustedRetriesError,
    RecoveryError,
)
from repro.faults.injector import FaultInjector
from repro.ftl.insider import InsiderFTL, RollbackReport
from repro.nand.array import NandArray
from repro.obs import Observability
from repro.ssd.config import SSDConfig
from repro.units import BLOCK_SIZE


@dataclass
class DeviceStats:
    """Host-visible operation counters."""

    reads: int = 0
    writes: int = 0
    dropped_writes: int = 0
    unmapped_reads: int = 0
    #: Host reads whose page stayed corrupt after the ECC retry budget
    #: (served as zeroes — data lost to the media, not to recovery).
    uncorrectable_reads: int = 0
    #: Host writes abandoned because every remap target also failed
    #: program verify (the device locks down when this fires).
    failed_writes: int = 0
    #: Power cycles survived (host-invoked or injected).
    power_losses: int = 0


class SimulatedSSD:
    """A NAND array + Insider FTL + in-firmware detector behind one API.

    Args:
        config: Device configuration (geometry, detector, retention...).
        tree: Detector tree; defaults to the library's pretrained tree.
        on_alarm: Host callback for the paper's "ransomware attack alarm"
            custom command (§III-C footnote 2).
        strict_read_only: Raise on writes while locked instead of silently
            dropping them (the paper's firmware ignores them; strict mode
            helps tests catch unintended writes).
        obs: Observability bundle shared by the device, the detector and
            the FTL (per-request spans, detector slice events, GC spans,
            queue/latency metrics); disabled by default, costing nothing.
    """

    def __init__(
        self,
        config: Optional[SSDConfig] = None,
        tree: Optional[DecisionTree] = None,
        on_alarm: Optional[Callable[[DetectionEvent], None]] = None,
        strict_read_only: bool = False,
        obs: Optional[Observability] = None,
    ) -> None:
        self.config = config or SSDConfig.small()
        self.clock = SimClock()
        self.obs = obs if obs is not None else Observability.off()
        self.obs.bind_clock(self.clock)
        #: The black-box flight recorder, when the bundle carries one.
        self.fr = self.obs.flightrec
        #: Incident bundles cut so far (alarm, media alarm, manual), in
        #: trigger order; each is a self-contained JSON-ready dict that
        #: ``python -m repro.tools.forensics`` renders as a report.
        self.incidents: List[Dict[str, object]] = []
        #: Deterministic media-fault source (None on a healthy device).
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(self.config.faults)
            if self.config.faults is not None else None
        )
        #: Whether periodic registry snapshots are due on this device.
        self._snapshots_on = self.obs.snapshot_interval is not None
        self.nand = NandArray(
            self.config.geometry,
            self.config.latencies,
            faults=self.fault_injector,
            ecc=self.config.ecc,
        )
        self.ftl = InsiderFTL(
            self.nand,
            op_ratio=self.config.op_ratio,
            gc_policy=self.config.gc_policy,
            retention=self.config.retention,
            queue_capacity=self.config.queue_capacity,
            obs=self.obs,
        )
        #: Logical capacity, cached for the per-request span check (a
        #: power-loss rebuild keeps the configuration, hence the size).
        self._lba_limit = self.ftl.num_lbas
        self.detector: Optional[RansomwareDetector] = None
        if self.config.detector_enabled:
            self.detector = RansomwareDetector(
                tree=tree,
                config=self.config.detector,
                on_alarm=self._alarm_hook,
                obs=self.obs,
            )
        self._host_alarm_callback = on_alarm
        self.strict_read_only = strict_read_only
        self._m_req_latency = None
        self._m_requests = None
        self._m_blocks = None
        self._m_dropped = None
        #: Whether per-request spans/metrics are armed at all; flight-
        #: recorder-only bundles skip the whole :meth:`_observed` wrapper.
        self._observe_requests = (
            self.obs.armed_tracer or self.obs.armed_metrics
        )
        if self.obs.armed_metrics:
            metrics = self.obs.metrics
            self._m_req_latency = metrics.loghistogram(
                "ssd_request_latency_seconds",
                "Host wall-clock time servicing one submitted request, "
                "by opcode.",
                labelnames=("mode",),
            )
            self._m_requests = metrics.counter(
                "ssd_requests_total", "Requests submitted, by opcode.",
                labelnames=("mode",),
            )
            self._m_blocks = metrics.counter(
                "ssd_blocks_total",
                "Logical blocks transferred, by opcode.",
                labelnames=("mode",),
            )
            self._m_dropped = metrics.counter(
                "ssd_dropped_writes_total",
                "Writes dropped by the read-only lockdown.",
            )
        self.read_only = False
        #: Sticky media-health flag: set when ECC or remap retries were
        #: exhausted; cleared only by a power cycle (fresh firmware boot).
        self.degraded = False
        self.stats = DeviceStats()
        self.rollback_reports: List[RollbackReport] = []
        self.wear_leveler = None
        if self.config.wear_level is not None:
            self.wear_leveler = self.ftl.attach_wear_leveling(
                self.config.wear_level
            )
        self.scrubber = None
        if self.config.scrub is not None:
            from repro.ftl.scrub import ReadScrubber

            self.scrubber = ReadScrubber(self.ftl, self.config.scrub)
        self._last_maintenance = 0.0

    # -- capacity ----------------------------------------------------------

    @property
    def num_lbas(self) -> int:
        """Logical capacity in 4-KB blocks."""
        return self.ftl.num_lbas

    @property
    def capacity_bytes(self) -> int:
        """Logical capacity in bytes."""
        return self.num_lbas * BLOCK_SIZE

    @property
    def alarm_raised(self) -> bool:
        """True while an unhandled ransomware alarm is pending."""
        return self.detector is not None and self.detector.alarm_raised

    # -- host I/O interface ------------------------------------------------

    def submit(self, request: IORequest) -> None:
        """Execute one (possibly multi-block) request from a trace."""
        self.submit_batch((request,))

    def submit_batch(self, requests) -> int:
        """Execute requests in order; returns how many were executed.

        Each request is span-checked before it touches the device — a
        rejected request raises :class:`~repro.errors.AddressError` with
        the clock, the power-loss schedule and all state untouched — then
        the clock advances to its timestamp and it executes.

        Stops early — returning the count executed so far, which is then
        less than ``len(requests)`` — when a request flips the device
        read-only (alarm lockdown or write-path media degradation), so a
        replay harness sees the lockdown at the request that caused it
        and can recover/dismiss before resubmitting the remainder.
        Requests submitted while the device is *already* read-only execute
        normally (reads served, writes dropped).
        """
        executed = 0
        was_read_only = self.read_only
        for request in requests:
            self._check_span(request.lba, request.length)
            self.clock.advance_to(request.time)
            self._maybe_power_loss()
            if self._snapshots_on:
                self.obs.maybe_snapshot(
                    self.clock.now, before=self.refresh_obs_metrics
                )
            if self._observe_requests:
                self._observed(request, lambda: self._execute(request))
            else:
                self._execute(request)
            executed += 1
            if self.read_only and not was_read_only:
                break
        return executed

    def _observed(self, request, operate):
        """Run one host operation under the request span + metrics."""
        mode = request.mode.value
        start = perf_counter()
        with self.obs.tracer.span(
            "ssd.request", category="io",
            mode=mode, lba=request.lba, length=request.length,
        ):
            result = operate()
        if self._m_req_latency is not None:
            self._m_req_latency.observe(perf_counter() - start, mode=mode)
            self._m_requests.inc(mode=mode)
            self._m_blocks.inc(request.length, mode=mode)
        self.obs.tracer.counter(
            "recovery_queue_depth", len(self.ftl.queue), category="queue"
        )
        return result

    def _execute(self, request: IORequest) -> None:
        if self.detector is not None:
            self.detector.observe(request)
        if self.fr is not None:
            self._flight_note(request)
        if request.mode is IOMode.READ:
            self._read_run(request.lba, request.length)
        else:
            self._write_run(request.lba, request.length, None)

    def read(self, lba: int, now: Optional[float] = None) -> bytes:
        """Read one 4-KB block; unmapped blocks read as zeroes."""
        self._check_span(lba, 1)
        timestamp = self._stamp(now)
        request = IORequest(time=timestamp, lba=lba, mode=IOMode.READ)
        if self.detector is not None:
            self.detector.observe(request)
        if self.fr is not None:
            self._flight_note(request)
        if not self._observe_requests:
            return self._read_block(lba)
        return self._observed(request, lambda: self._read_block(lba))

    def write(self, lba: int, payload: Optional[bytes] = None,
              now: Optional[float] = None) -> None:
        """Write one 4-KB block (dropped/refused while read-only)."""
        self._check_span(lba, 1)
        timestamp = self._stamp(now)
        request = IORequest(time=timestamp, lba=lba, mode=IOMode.WRITE)
        if self.detector is not None:
            self.detector.observe(request)
        if self.fr is not None:
            self._flight_note(request)
        if not self._observe_requests:
            self._write_run(lba, 1, payload)
            return
        self._observed(request, lambda: self._write_run(lba, 1, payload))

    def trim(self, lba: int, now: Optional[float] = None) -> None:
        """Discard one block (used by the filesystem on delete)."""
        self._check_span(lba, 1)
        timestamp = self._stamp(now)
        if self.read_only:
            if self.strict_read_only:
                raise DeviceReadOnlyError("device is read-only after an alarm")
            self.stats.dropped_writes += 1
            if self._m_dropped is not None:
                self._m_dropped.inc()
            return
        self.ftl.trim(lba, timestamp)

    def tick(self, now: float) -> None:
        """Advance time without I/O (lets quiet periods decay the score).

        Background maintenance (read-disturb scrubbing) also runs here —
        idle time is when firmware does its housekeeping.
        """
        self.clock.advance_to(now)
        self._maybe_power_loss()
        if self._snapshots_on:
            self.obs.maybe_snapshot(
                self.clock.now, before=self.refresh_obs_metrics
            )
        if self.detector is not None:
            self.detector.tick(now)
        self._maybe_maintain()

    def _maybe_maintain(self) -> None:
        now = self.clock.now
        if now - self._last_maintenance < self.config.maintenance_interval:
            return
        self._last_maintenance = now
        if self.scrubber is not None and not self.read_only:
            self.scrubber.sweep()

    # -- alarm & recovery ---------------------------------------------------

    def recover(self) -> RollbackReport:
        """Roll the mapping table back one retention window (Fig. 5).

        Returns the rollback report; the device becomes writable again and
        the detector restarts clean (the paper asks the user to reboot and
        clean the ransomware; the detector must not keep alarming on the
        attack it already undid).
        """
        if self.detector is not None and not self.detector.alarm_raised:
            raise RecoveryError("no alarm is pending; nothing to recover from")
        # Freeze the queue occupancy the rollback is about to drain — the
        # incident bundle reports the headroom the recovery actually had.
        queue_at_rollback = (
            self._queue_state() if self.fr is not None else None
        )
        if not self.obs.enabled:
            report = self.ftl.rollback(self.clock.now)
        else:
            with self.obs.tracer.span(
                "ssd.rollback", category="recovery"
            ) as span:
                report = self.ftl.rollback(self.clock.now)
                span.set("entries_scanned", report.entries_scanned)
                span.set("entries_applied", report.entries_applied)
                span.set("lbas_restored", report.lbas_restored)
                span.set("lbas_unmapped", report.lbas_unmapped)
        self.rollback_reports.append(report)
        if self.fr is not None:
            self.fr.record_event(
                "rollback", self.clock.now,
                entries_scanned=report.entries_scanned,
                entries_applied=report.entries_applied,
                lbas_restored=report.lbas_restored,
                lbas_unmapped=report.lbas_unmapped,
            )
            if self.incidents:
                # Annotate the incident that triggered this recovery with
                # what the rollback did and the queue state it drained.
                self.incidents[-1]["rollback"] = {
                    "time": self.clock.now,
                    "queue_at_rollback": queue_at_rollback,
                    "entries_scanned": report.entries_scanned,
                    "entries_applied": report.entries_applied,
                    "lbas_restored": report.lbas_restored,
                    "lbas_unmapped": report.lbas_unmapped,
                    "mapping_updates": report.mapping_updates,
                }
        self.read_only = False
        if self.detector is not None:
            self.detector.reset()
        if self.obs.enabled:
            self.refresh_obs_metrics()
        return report

    def power_cycle(self) -> None:
        """Simulate a power loss and restart.

        DRAM contents vanish; the FTL rebuilds its mapping — and the
        recovery queue — from the NAND array's out-of-band records, and
        the detector restarts cold (its counting table held at most one
        window of transient state anyway).  Grown and factory bad blocks
        stay retired (their flags live in the NAND array), and the
        degraded latch clears — a fresh boot re-assesses media health.
        """
        self.stats.power_losses += 1
        self.ftl = InsiderFTL.rebuild(
            self.nand,
            op_ratio=self.config.op_ratio,
            gc_policy=self.config.gc_policy,
            retention=self.config.retention,
            queue_capacity=self.config.queue_capacity,
            obs=self.obs,
        )
        if self.wear_leveler is not None:
            self.wear_leveler = self.ftl.attach_wear_leveling(
                self.config.wear_level
            )
        if self.scrubber is not None:
            from repro.ftl.scrub import ReadScrubber

            self.scrubber = ReadScrubber(self.ftl, self.config.scrub)
        if self.detector is not None:
            self.detector.reset()
        self.read_only = False
        self.degraded = False

    def dismiss_alarm(self) -> None:
        """Host says "false alarm": unlock writes, keep the data as is."""
        self.read_only = False
        if self.detector is not None:
            self.detector.reset()

    def _alarm_hook(self, event: DetectionEvent) -> None:
        self.read_only = True
        if self.obs.enabled:
            self.obs.tracer.instant(
                "ssd.lockdown", category="recovery",
                sim_time=event.time, slice_index=event.slice_index,
                score=event.score,
            )
        if self.fr is not None:
            # The detector attributed the alarming slice before invoking
            # this hook, so the bundle's attribution ring already ends on
            # the root-to-leaf path that raised the score past threshold.
            self._cut_incident(
                "alarm", event.time,
                details={
                    "slice_index": event.slice_index,
                    "score": event.score,
                    "threshold": self.detector.config.threshold,
                },
            )
        if self._host_alarm_callback is not None:
            self._host_alarm_callback(event)

    # -- observability -------------------------------------------------------

    def refresh_obs_metrics(self) -> None:
        """Fold current device/FTL/detector state into the gauges.

        Incremental counters update inline on the data path; the derived
        values (write amplification, utilization, queue depth, score) are
        snapshots, so they are recomputed here — call this before
        rendering the registry.  A no-op while observability is disabled.
        """
        if not self.obs.enabled:
            return
        metrics = self.obs.metrics
        metrics.gauge(
            "recovery_queue_depth", "Backup entries currently queued."
        ).set(len(self.ftl.queue))
        metrics.gauge(
            "recovery_queue_pinned_pages",
            "Old-version physical pages pinned against GC.",
        ).set(self.ftl.pinned_pages())
        metrics.gauge(
            "ftl_write_amplification",
            "(host writes + GC copies) / host writes.",
        ).set(self.ftl.stats.write_amplification)
        metrics.gauge(
            "ftl_utilization", "Fraction of logical space currently mapped."
        ).set(self.ftl.utilization())
        metrics.gauge(
            "ssd_recoveries", "Mapping-table rollbacks completed."
        ).set(len(self.rollback_reports))
        reliability = self.nand.reliability
        metrics.gauge(
            "nand_corrected_reads",
            "Reads with raw bit errors corrected by ECC (in-line or retry).",
        ).set(reliability.corrected_reads)
        metrics.gauge(
            "nand_uncorrectable_reads",
            "Reads abandoned after the ECC retry budget (data lost).",
        ).set(reliability.uncorrectable_reads)
        metrics.gauge(
            "ftl_bad_blocks", "Blocks retired as bad (factory + grown)."
        ).set(self.ftl.allocator.retired_blocks)
        if self.detector is not None:
            metrics.gauge(
                "detector_score",
                "Current sliding-window score (0..window size).",
            ).set(self.detector.score)

    # -- flight recorder & incident bundles ---------------------------------

    def snapshot_incident(self, reason: str = "manual") -> Dict[str, object]:
        """Cut an incident bundle on demand (post-mortem of a live run).

        The automatic triggers are the alarm, a media alarm, and the
        degraded latch; this is the escape hatch for "the run looks wrong,
        freeze the black box now".  Requires an armed flight recorder.
        """
        if self.fr is None:
            raise ConfigError(
                "no flight recorder armed; build the device with "
                "Observability.on(flight=FlightRecorder(...))"
            )
        return self._cut_incident(reason, self.clock.now)

    def _flight_note(self, request: IORequest) -> None:
        """Fold one host request into the flight recorder's rings."""
        self.fr.record_request(request)
        self.fr.sample_queue(
            request.time, len(self.ftl.queue), self.ftl.pinned_pages()
        )

    def _cut_incident(
        self,
        trigger: str,
        sim_time: float,
        details: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Snapshot the flight recorder + live device state into a bundle."""
        bundle = self.fr.snapshot(
            trigger, sim_time, details=details, extra=self._incident_extra()
        )
        self.incidents.append(bundle)
        if self.obs.enabled:
            self.obs.tracer.instant(
                "ssd.incident_snapshot", category="recovery",
                sim_time=sim_time, trigger=trigger,
            )
        return bundle

    def _queue_state(self) -> Dict[str, object]:
        """Recovery-queue occupancy and headroom, JSON-ready."""
        queue = self.ftl.queue
        depth = len(queue)
        capacity = queue.capacity
        return {
            "depth": depth,
            "capacity": capacity,
            "headroom": capacity - depth if capacity is not None else None,
            "pinned_pages": queue.pinned_count,
            "evictions": queue.evictions,
            "retention_seconds": queue.retention,
            "memory_bytes": queue.memory_bytes(),
        }

    def _incident_extra(self) -> Dict[str, object]:
        """The live-state sections stamped into every incident bundle."""
        detector_section: Optional[Dict[str, object]] = None
        if self.detector is not None:
            detector = self.detector
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
        return {
            "device": {
                "read_only": self.read_only,
                "degraded": self.degraded,
                "reads": self.stats.reads,
                "writes": self.stats.writes,
                "dropped_writes": self.stats.dropped_writes,
                "failed_writes": self.stats.failed_writes,
                "uncorrectable_reads": self.stats.uncorrectable_reads,
                "unmapped_reads": self.stats.unmapped_reads,
                "power_losses": self.stats.power_losses,
            },
            "detector": detector_section,
            "recovery_queue": self._queue_state(),
            "faults": (
                self.fault_injector.stats.as_dict()
                if self.fault_injector is not None else None
            ),
        }

    # -- internals -----------------------------------------------------------

    def _check_span(self, lba: int, length: int) -> None:
        """Reject a request reaching outside the logical space.

        Runs before the detector, the FTL or the NAND array sees the
        request, so a rejected request changes no device state (a write
        past the end would otherwise program a page nothing maps).
        """
        if lba < 0 or lba + length > self._lba_limit:
            raise AddressError(
                f"request [{lba}, {lba + length}) outside the logical "
                f"space [0, {self._lba_limit})"
            )

    def _stamp(self, now: Optional[float]) -> float:
        if now is not None:
            self.clock.advance_to(now)
        self._maybe_power_loss()
        return self.clock.now

    def _maybe_power_loss(self) -> None:
        """Fire the scheduled whole-device power loss once its time comes.

        The cut lands on a request boundary (page programs are atomic in
        this simulator); everything DRAM-resident — mapping table,
        recovery queue, detector state — vanishes and is rebuilt by
        :meth:`power_cycle`.
        """
        if (self.fault_injector is not None
                and self.fault_injector.power_loss_due(self.clock.now)):
            if self.obs.enabled:
                self.obs.tracer.instant(
                    "ssd.power_loss", category="reliability",
                    sim_time=self.clock.now,
                )
            if self.fr is not None:
                self.fr.record_event("power_loss", self.clock.now)
            self.power_cycle()

    def _media_degrade(self, reason: str, lockdown: bool, **details) -> None:
        """Graceful degradation: raise the media alarm, optionally lock down.

        Write-path exhaustion locks the device read-only (the media can
        no longer absorb writes reliably; freezing preserves the mapping
        and the recovery queue).  Read-path exhaustion alarms without
        lockdown — the lost page is already lost, and refusing new writes
        would not bring it back.
        """
        self.degraded = True
        if lockdown:
            self.read_only = True
        if self.obs.enabled:
            self.obs.tracer.instant(
                "ssd.media_alarm", category="reliability",
                sim_time=self.clock.now, reason=reason,
                lockdown=lockdown, **details,
            )
        if self.fr is not None:
            self.fr.record_event(
                "media_alarm", self.clock.now,
                reason=reason, lockdown=lockdown, **details,
            )
            self._cut_incident(
                "media_alarm", self.clock.now,
                details={"cause": reason, "lockdown": lockdown, **details},
            )

    def _read_block(self, lba: int) -> bytes:
        """One block's data; unmapped and lost blocks read as zeroes."""
        ppa = self._read_run(lba, 1)
        payload = None if ppa is None else self.nand.payloads[ppa]
        return bytes(BLOCK_SIZE) if payload is None else payload

    def _read_run(self, lba: int, length: int) -> Optional[int]:
        """Serve a read of ``length`` blocks; returns the last block's PPA.

        One FTL call per span, plus one more after each block lost to the
        media: a lost block is counted — and raises the media alarm — in
        LBA order, before the blocks after it are read.
        """
        stats = self.stats
        now = self.clock.now
        ppa = None
        while length:
            done, unmapped, error, ppa = self.ftl.read_span(lba, length, now)
            stats.reads += done
            if unmapped:
                stats.unmapped_reads += unmapped
            if error is not None:
                stats.uncorrectable_reads += 1
                self._media_degrade("uncorrectable_read", lockdown=False,
                                    lba=lba + done - 1, retries=error.retries)
            lba += done
            length -= done
        return ppa

    def _write_run(self, lba: int, length: int,
                   payload: Optional[bytes]) -> None:
        """Write ``length`` blocks; those arriving while read-only are dropped.

        One FTL call per span.  When every remap target fails program
        verify, the failing block is counted, the device locks down, and
        the rest of the span meets the read-only lockdown like any later
        write.
        """
        stats = self.stats
        # Content-aware models (repro.core.entropy.HybridDetector) sample
        # write payloads as they stream through the firmware.
        observe_write = (
            getattr(self.detector.tree, "observe_write", None)
            if self.detector is not None else None
        )
        while length:
            if self.read_only:
                if self.strict_read_only:
                    raise DeviceReadOnlyError(
                        "device is read-only after an alarm"
                    )
                stats.dropped_writes += length
                if self._m_dropped is not None:
                    self._m_dropped.inc(length)
                return
            try:
                self.ftl.write_span(lba, length, self.clock.now, payload)
                done, failed = length, False
            except ExhaustedRetriesError as exc:
                done, failed = exc.written + 1, True
            if observe_write is not None:
                for _ in range(done):
                    observe_write(payload)
            stats.writes += done
            lba += done
            length -= done
            if failed:
                stats.failed_writes += 1
                self._media_degrade("program_retries_exhausted",
                                    lockdown=True, lba=lba - 1)
