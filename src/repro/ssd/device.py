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

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.blockdev.request import IOMode, IORequest
from repro.clock import SimClock
from repro.core.detector import DetectionEvent, RansomwareDetector, weak_hook
from repro.core.id3 import DecisionTree
from repro.errors import (
    AddressError,
    ExhaustedRetriesError,
    OutOfSpaceError,
    RecoveryError,
)
from repro.faults.injector import FaultInjector
from repro.ftl.insider import InsiderFTL, RollbackReport
from repro.nand.array import NandArray
from repro.obs.probe import NULL_PROBE, Probe
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
        obs: An :class:`~repro.obs.Observability` bundle to publish the
            device's, the detector's and the FTL's events to (request
            spans, slice events, GC spans, queue/latency metrics, incident
            bundles).  Without one they go to the shared null probe.
    """

    def __init__(
        self,
        config: Optional[SSDConfig] = None,
        tree: Optional[DecisionTree] = None,
        on_alarm: Optional[Callable[[DetectionEvent], None]] = None,
        obs: Optional[Probe] = None,
    ) -> None:
        self.config = config or SSDConfig.small()
        self.clock = SimClock()
        #: The observability bundle the device was built with, if any.
        self.obs = obs
        #: Where the device, its detector and its FTL publish events.
        self.probe = obs if obs is not None else NULL_PROBE
        #: Incident bundles cut so far (alarm, media alarm, manual), in
        #: trigger order; each is a self-contained JSON-ready dict that
        #: ``python -m repro.tools.forensics`` renders as a report.
        self.incidents: List[Dict[str, object]] = []
        #: Deterministic media-fault source (None on a healthy device).
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(self.config.faults)
            if self.config.faults is not None else None
        )
        self.nand = NandArray(
            self.config.geometry,
            self.config.latencies,
            faults=self.fault_injector,
            ecc=self.config.ecc,
        )
        self._boot(InsiderFTL)
        #: Logical capacity, cached for the per-request span check (a
        #: power-loss rebuild keeps the configuration, hence the size).
        self._lba_limit = self.ftl.num_lbas
        self.detector: Optional[RansomwareDetector] = None
        if self.config.detector_enabled:
            self.detector = RansomwareDetector(
                tree=tree,
                config=self.config.detector,
                on_alarm=weak_hook(self._alarm_hook),
                probe=self.probe,
            )
        self._host_alarm_callback = on_alarm
        self.read_only = False
        #: Whether a write-path media failure caused the lockdown; only a
        #: power cycle lifts it, never ``recover`` or ``dismiss_alarm``.
        self._media_locked = False
        #: Sticky media-health flag: set when ECC or remap retries were
        #: exhausted; cleared only by a power cycle (fresh firmware boot).
        self.degraded = False
        self.stats = DeviceStats()
        self.rollback_reports: List[RollbackReport] = []
        self._last_maintenance = 0.0
        self.probe.attach(self)

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
        injector = self.fault_injector
        for request in requests:
            self._check_span(request.lba, request.length)
            self.clock.advance_to(request.time)
            if injector is not None:
                self._maybe_power_loss()
            self._execute(request)
            executed += 1
            if self.read_only and not was_read_only:
                break
        return executed

    def _execute(self, request: IORequest,
                 payload: Optional[bytes] = None) -> Optional[int]:
        """Serve any host request: detector first, then the data moves.

        A read returns its last block's PPA (None when unmapped or lost).
        An armed :class:`~repro.obs.Observability` wraps this per device.
        """
        if self.detector is not None:
            self.detector.observe(request)
        if request.mode is IOMode.READ:
            return self._read_run(request.lba, request.length)
        self._write_run(request.lba, request.length, payload)
        return None

    def read(self, lba: int, now: Optional[float] = None) -> bytes:
        """Read one 4-KB block; unmapped blocks read as zeroes."""
        self._check_span(lba, 1)
        return self._block_data(self._execute(
            IORequest(time=self._stamp(now), lba=lba, mode=IOMode.READ)))

    def write(self, lba: int, payload: Optional[bytes] = None,
              now: Optional[float] = None) -> None:
        """Write one 4-KB block (dropped/refused while read-only)."""
        self._check_span(lba, 1)
        self._execute(
            IORequest(time=self._stamp(now), lba=lba, mode=IOMode.WRITE),
            payload)

    def trim(self, lba: int, now: Optional[float] = None) -> None:
        """Discard one block (used by the filesystem on delete)."""
        self._check_span(lba, 1)
        timestamp = self._stamp(now)
        if self.read_only:
            self.stats.dropped_writes += 1
            return
        self.ftl.trim(lba, timestamp)

    def tick(self, now: float) -> None:
        """Advance time without I/O (lets quiet periods decay the score).

        Background maintenance (read-disturb scrubbing) also runs here —
        idle time is when firmware does its housekeeping.
        """
        self.clock.advance_to(now)
        if self.fault_injector is not None:
            self._maybe_power_loss()
        self.probe.idle(self)
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

        Returns the rollback report; the device becomes writable again
        (unless a media failure locked it, see :meth:`dismiss_alarm`) and
        the detector restarts clean (the paper asks the user to reboot and
        clean the ransomware; the detector must not keep alarming on the
        attack it already undid).
        """
        if self.detector is not None and not self.detector.alarm_raised:
            raise RecoveryError("no alarm is pending; nothing to recover from")
        self.probe.rollback_started(self)
        report = self.ftl.rollback(self.clock.now)
        self.rollback_reports.append(report)
        self.read_only = self._media_locked
        if self.detector is not None:
            self.detector.reset()
        self.probe.rolled_back(self, report)
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
        self._boot(InsiderFTL.rebuild)
        if self.detector is not None:
            self.detector.reset()
        self.read_only = self._media_locked = False
        self.degraded = False

    def dismiss_alarm(self) -> None:
        """Host says "false alarm": unlock writes, keep the data as is.

        Lifts only the alarm's lockdown: a device that a write-path media
        failure locked stays read-only until :meth:`power_cycle`.
        """
        self.read_only = self._media_locked
        if self.detector is not None:
            self.detector.reset()

    def _alarm_hook(self, event: DetectionEvent) -> None:
        self.read_only = True
        self.probe.alarm(self, event)
        if self._host_alarm_callback is not None:
            self._host_alarm_callback(event)

    # -- observability -------------------------------------------------------

    def refresh_obs_metrics(self) -> None:
        """Sync the derived gauges; call before rendering the registry."""
        self.probe.refresh(self)

    def snapshot_incident(self, reason: str = "manual") -> Dict[str, object]:
        """Cut an incident bundle on demand (post-mortem of a live run).

        The automatic triggers are the alarm, a media alarm, and the
        degraded latch; this is the escape hatch for "the run looks wrong,
        freeze the black box now".  Requires an armed flight recorder.
        """
        return self.probe.snapshot_incident(self, reason)

    # -- internals -----------------------------------------------------------

    def _boot(self, build: Callable[..., InsiderFTL]) -> None:
        """Build the FTL (fresh, or rebuilt from NAND) and its maintenance."""
        config = self.config
        self.ftl = build(
            self.nand,
            op_ratio=config.op_ratio,
            gc_policy=config.gc_policy,
            retention=config.retention,
            queue_capacity=config.queue_capacity,
            probe=self.probe,
        )
        self.wear_leveler = None
        if config.wear_level is not None:
            self.wear_leveler = self.ftl.attach_wear_leveling(
                config.wear_level)
        self.scrubber = None
        if config.scrub is not None:
            from repro.ftl.scrub import ReadScrubber

            self.scrubber = ReadScrubber(self.ftl, config.scrub)

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
        if self.fault_injector is not None:
            self._maybe_power_loss()
        return self.clock.now

    def _maybe_power_loss(self) -> None:
        """Fire the scheduled whole-device power loss once its time comes.

        The cut lands on a request boundary (page programs are atomic in
        this simulator); everything DRAM-resident — mapping table,
        recovery queue, detector state — vanishes and is rebuilt by
        :meth:`power_cycle`.  Callers check for a fault injector first, so
        a healthy device pays no call per request.
        """
        if self.fault_injector.power_loss_due(self.clock.now):
            self.probe.power_loss(self)
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
            self.read_only = self._media_locked = True
        self.probe.media_alarm(self, reason, lockdown, details)

    def _block_data(self, ppa: Optional[int]) -> bytes:
        """The data at ``ppa``; unmapped and lost blocks read as zeroes."""
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
        verify, or retired blocks leave no free one, the failing block is
        counted, the device locks down, and the rest of the span meets
        the read-only lockdown like any later write.
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
                stats.dropped_writes += length
                return
            try:
                self.ftl.write_span(lba, length, self.clock.now, payload)
                done, failure = length, None
            except ExhaustedRetriesError as exc:
                done, failure = exc.written + 1, "program_retries_exhausted"
            except OutOfSpaceError as exc:
                done, failure = exc.written + 1, "out_of_space"
            if observe_write is not None:
                for _ in range(done):
                    observe_write(payload)
            stats.writes += done
            lba += done
            length -= done
            if failure is not None:
                stats.failed_writes += 1
                self._media_degrade(failure, lockdown=True, lba=lba - 1)
