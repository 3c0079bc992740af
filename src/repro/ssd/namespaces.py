"""NVMe-style namespaces: per-tenant detection and selective recovery.

A multi-tenant SSD exposes one physical device as several logical
namespaces.  Extending SSD-Insider to that world raises two questions the
single-scope paper never has to answer:

* **Blast radius** — one tenant's ransomware must not freeze the others'
  I/O.  Each namespace therefore gets its *own* detector and its own
  read-only lockdown.
* **Selective recovery** — rolling the whole mapping table back would
  revert innocent tenants' recent writes.  The Insider FTL's rollback
  accepts an LBA range, so only the infected namespace rewinds; the
  recovery queue keeps the other tenants' backups queued.

The per-namespace detectors also see *less mixed* traffic than one global
detector would — tenant isolation is a detection feature, not just a
management one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.blockdev.request import IOMode, IORequest
from repro.core.config import DetectorConfig
from repro.core.detector import DetectionEvent, RansomwareDetector, weak_hook
from repro.core.id3 import DecisionTree
from repro.errors import AddressError, ConfigError, DeviceReadOnlyError
from repro.ftl.insider import RollbackReport
from repro.ssd.device import SimulatedSSD


@dataclass
class NamespaceStats:
    """Per-namespace operation counters."""

    reads: int = 0
    writes: int = 0
    dropped_writes: int = 0


class Namespace:
    """One tenant's logical view of a shared device.

    A namespace holds its device directly and its manager only weakly,
    for the alarm callback: the manager owns its namespaces, so a strong
    reference back would make a reference cycle (see DESIGN.md,
    "Ownership").
    """

    def __init__(
        self,
        manager: "NamespaceManager",
        index: int,
        start_lba: int,
        num_lbas: int,
        tree: Optional[DecisionTree],
        config: DetectorConfig,
    ) -> None:
        self.device = manager.device
        self._manager = weakref.ref(manager)
        self.index = index
        self.start_lba = start_lba
        self.num_lbas = num_lbas
        self.read_only = False
        self.stats = NamespaceStats()
        self.detector = RansomwareDetector(
            tree=tree, config=config, on_alarm=weak_hook(self._alarm_hook)
        )
        self.rollback_reports: List[RollbackReport] = []

    @property
    def alarm_raised(self) -> bool:
        """True while this namespace has an unhandled alarm."""
        return self.detector.alarm_raised

    def _check(self, lba: int) -> int:
        if not (0 <= lba < self.num_lbas):
            raise AddressError(
                f"namespace {self.index}: LBA {lba} out of range "
                f"[0, {self.num_lbas})"
            )
        return self.start_lba + lba

    def read(self, lba: int, now: Optional[float] = None) -> bytes:
        """Read one block of this namespace.

        This namespace's detector sees the namespace-relative header; the
        device serves the physical one through its host-request seam, so
        an armed observability bundle traces and counts it like any other.
        """
        device = self.device
        physical = self._check(lba)
        timestamp = device._stamp(now)
        self.detector.observe(
            IORequest(time=timestamp, lba=lba, mode=IOMode.READ)
        )
        self.stats.reads += 1
        return device._block_data(device._execute(
            IORequest(time=timestamp, lba=physical, mode=IOMode.READ)))

    def write(self, lba: int, payload: Optional[bytes] = None,
              now: Optional[float] = None) -> None:
        """Write one block (dropped while this namespace is locked)."""
        device = self.device
        physical = self._check(lba)
        timestamp = device._stamp(now)
        self.detector.observe(
            IORequest(time=timestamp, lba=lba, mode=IOMode.WRITE)
        )
        if self.read_only:
            self.stats.dropped_writes += 1
            return
        self.stats.writes += 1
        device._execute(
            IORequest(time=timestamp, lba=physical, mode=IOMode.WRITE), payload)

    def tick(self, now: float) -> None:
        """Advance this namespace's detector through idle time."""
        self.device.clock.advance_to(now)
        self.detector.tick(now)

    def recover(self) -> RollbackReport:
        """Roll back *this namespace only* and unlock it."""
        device = self.device
        report = device.ftl.rollback(
            device.clock.now,
            lba_range=(self.start_lba, self.start_lba + self.num_lbas),
        )
        self.rollback_reports.append(report)
        self.read_only = False
        self.detector.reset()
        return report

    def dismiss_alarm(self) -> None:
        """False alarm: unlock without rolling back."""
        self.read_only = False
        self.detector.reset()

    def _alarm_hook(self, event: DetectionEvent) -> None:
        self.read_only = True
        manager = self._manager()
        if manager is not None and manager.on_alarm is not None:
            manager.on_alarm(self, event)


class NamespaceManager:
    """Splits a device's logical space into equal namespaces.

    Args:
        device: The shared device; its own global detector must be
            disabled (per-namespace detectors replace it, and a device
            detector would see every tenant's headers mixed together).
        count: Number of namespaces.
        tree: Detector tree shared by all namespaces (defaults to the
            bundled one).
        config: Detector parameters.
        on_alarm: Callback ``(namespace, event)`` on any tenant's alarm.
    """

    def __init__(
        self,
        device: SimulatedSSD,
        count: int,
        tree: Optional[DecisionTree] = None,
        config: Optional[DetectorConfig] = None,
        on_alarm: Optional[Callable[[Namespace, DetectionEvent], None]] = None,
    ) -> None:
        if count < 1:
            raise ConfigError(f"need >= 1 namespace, got {count}")
        if device.detector is not None:
            raise ConfigError(
                "namespaces need a device built with detector_enabled=False: "
                "each namespace runs its own detector"
            )
        if device.num_lbas < count:
            raise ConfigError("device too small for that many namespaces")
        self.device = device
        self.on_alarm = on_alarm
        config = config or DetectorConfig()
        size = device.num_lbas // count
        self.namespaces: List[Namespace] = [
            Namespace(self, index, index * size, size, tree, config)
            for index in range(count)
        ]

    def __getitem__(self, index: int) -> Namespace:
        return self.namespaces[index]

    def __len__(self) -> int:
        return len(self.namespaces)

    @property
    def alarmed(self) -> List[Namespace]:
        """Namespaces with pending alarms."""
        return [ns for ns in self.namespaces if ns.alarm_raised]
