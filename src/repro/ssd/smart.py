"""SMART-style self-reporting and the custom host command interface.

§III-C (footnote 2): *"The modern storage interface standards provide a
way of adding user-defined commands so that the host and the storage
device exchange maintenance information ... a 'ransomware attack alarm'
can be added as a new command."*  This module implements that surface:

* :func:`smart_report` — a SMART-attribute-style health snapshot
  (alarm state, detector score, recovery-queue depth, GC counters, wear);
* :class:`HostCommandInterface` — the user-defined command set a host
  driver would issue: query the alarm, fetch details, approve recovery,
  or dismiss a false alarm.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.errors import DeviceError
from repro.ssd.device import SimulatedSSD


#: SMART-style attribute identifiers (vendor-specific range, as real
#: vendors use for custom health data).
ATTR_ALARM = 0xF0
ATTR_SCORE = 0xF1
ATTR_QUEUE_DEPTH = 0xF2
ATTR_PINNED_PAGES = 0xF3
ATTR_QUEUE_EVICTIONS = 0xF4
ATTR_GC_PAGE_COPIES = 0xF5
ATTR_ERASES = 0xF6
ATTR_WEAR_SPREAD = 0xF7
ATTR_DROPPED_WRITES = 0xF8
ATTR_RECOVERIES = 0xF9
#: Reliability attributes (the classic SMART media-health set, in the
#: same vendor-specific range).
ATTR_BAD_BLOCKS = 0xFA
ATTR_CORRECTED_READS = 0xFB
ATTR_UNCORRECTABLE_READS = 0xFC
ATTR_PROGRAM_FAILS = 0xFD
ATTR_POWER_LOSSES = 0xFE
ATTR_DEGRADED = 0xFF


def smart_report(device: SimulatedSSD, metrics: bool = False) -> Dict:
    """Build the SMART attribute table from live device state.

    With ``metrics=True`` (and a device observed with a registry) the
    vendor-specific attribute page grows a ``"metrics"`` section carrying
    the full registry snapshot — the modern "telemetry log page" analogue
    of the paper's custom-command surface.
    """
    wear = device.nand.wear_stats()
    score = device.detector.score if device.detector is not None else 0
    report: Dict = {
        ATTR_ALARM: int(device.alarm_raised),
        ATTR_SCORE: score,
        ATTR_QUEUE_DEPTH: len(device.ftl.queue),
        ATTR_PINNED_PAGES: device.ftl.pinned_pages(),
        ATTR_QUEUE_EVICTIONS: device.ftl.queue.evictions,
        ATTR_GC_PAGE_COPIES: device.ftl.stats.gc_page_copies,
        ATTR_ERASES: device.ftl.stats.erases,
        ATTR_WEAR_SPREAD: wear.spread,
        ATTR_DROPPED_WRITES: device.stats.dropped_writes,
        ATTR_RECOVERIES: len(device.rollback_reports),
        ATTR_BAD_BLOCKS: device.ftl.allocator.retired_blocks,
        ATTR_CORRECTED_READS: device.nand.reliability.corrected_reads,
        ATTR_UNCORRECTABLE_READS: device.nand.reliability.uncorrectable_reads,
        ATTR_PROGRAM_FAILS: device.nand.reliability.program_fails,
        ATTR_POWER_LOSSES: device.stats.power_losses,
        ATTR_DEGRADED: int(device.degraded),
    }
    registry = getattr(device.obs, "metrics", None)
    if metrics and registry is not None:
        device.refresh_obs_metrics()
        report["metrics"] = registry.to_dict()
    return report


class HostCommand(enum.Enum):
    """The user-defined commands of the paper's notification protocol."""

    QUERY_ALARM = "query_alarm"
    ALARM_DETAILS = "alarm_details"
    APPROVE_RECOVERY = "approve_recovery"
    DISMISS_ALARM = "dismiss_alarm"
    SMART_READ = "smart_read"


@dataclass
class CommandResult:
    """A command's response payload."""

    ok: bool
    data: Dict


class HostCommandInterface:
    """The host side of the alarm/recovery handshake (§III-C).

    The flow the paper describes: the device raises the alarm and goes
    read-only; the host's integrated application asks the user; the user
    either approves recovery (mapping-table rollback, then reboot and
    clean up with anti-virus) or dismisses a false alarm.
    """

    def __init__(self, device: SimulatedSSD) -> None:
        self.device = device

    def execute(self, command: HostCommand) -> CommandResult:
        """Dispatch one host command."""
        if command is HostCommand.QUERY_ALARM:
            return CommandResult(ok=True,
                                 data={"alarm": self.device.alarm_raised})
        if command is HostCommand.ALARM_DETAILS:
            return self._alarm_details()
        if command is HostCommand.APPROVE_RECOVERY:
            return self._approve_recovery()
        if command is HostCommand.DISMISS_ALARM:
            self.device.dismiss_alarm()
            return CommandResult(ok=True, data={"alarm": False})
        if command is HostCommand.SMART_READ:
            return CommandResult(ok=True, data=smart_report(self.device))
        raise DeviceError(f"unknown host command: {command!r}")

    def _alarm_details(self) -> CommandResult:
        detector = self.device.detector
        if detector is None or detector.alarm_event is None:
            return CommandResult(ok=False, data={"error": "no alarm pending"})
        event = detector.alarm_event
        return CommandResult(
            ok=True,
            data={
                "slice_index": event.slice_index,
                "score": event.score,
                "threshold": detector.config.threshold,
                "features": event.features.as_dict(),
                "read_only": self.device.read_only,
            },
        )

    def _approve_recovery(self) -> CommandResult:
        if not self.device.alarm_raised:
            return CommandResult(ok=False, data={"error": "no alarm pending"})
        report = self.device.recover()
        return CommandResult(
            ok=True,
            data={
                "mapping_updates": report.mapping_updates,
                "lbas_restored": report.lbas_restored,
                "lbas_unmapped": report.lbas_unmapped,
                "reboot_required": True,  # the paper asks users to reboot
            },
        )
