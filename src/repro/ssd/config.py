"""Device-level configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import DetectorConfig
from repro.errors import ConfigError
from repro.faults.config import FaultConfig
from repro.ftl.gc import GcPolicy
from repro.nand.ecc import EccConfig
from repro.nand.geometry import NandGeometry
from repro.nand.latency import NandLatencies


@dataclass(frozen=True)
class SSDConfig:
    """Everything needed to assemble a :class:`~repro.ssd.device.SimulatedSSD`.

    Attributes:
        geometry: NAND array dimensions.
        latencies: NAND operation latencies.
        op_ratio: Over-provisioning ratio (reserved physical share).
        gc_policy: GC trigger/target thresholds.
        detector: Detection-pipeline parameters.
        detector_enabled: Disable to get a plain (but still Insider-FTL)
            device; useful for substrate-only experiments.
        retention: Recovery-queue window in seconds (the paper's 10 s).
        queue_capacity: Recovery-queue entry bound (Table III sizing).
            None provisions half the over-provisioned pages.  Zero-loss
            recovery requires the capacity to cover one window of worst-
            case overwrites — size the device's OP for the expected attack
            rate times the detection latency.
    """

    geometry: NandGeometry = field(default_factory=NandGeometry.small)
    latencies: NandLatencies = field(default_factory=NandLatencies)
    op_ratio: float = 0.125
    gc_policy: GcPolicy = field(default_factory=GcPolicy)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    detector_enabled: bool = True
    retention: float = 10.0
    queue_capacity: Optional[int] = None
    #: Enable deterministic media-fault injection (None = off; the
    #: default device takes exactly the pre-fault code paths).
    faults: Optional["FaultConfig"] = None
    #: ECC read-retry budget and backoff (only consulted when faults are
    #: enabled — a healthy array never needs a retry).
    ecc: EccConfig = field(default_factory=EccConfig)

    def __post_init__(self) -> None:
        if not 0 < self.retention < math.inf:  # also false for NaN
            raise ConfigError(
                f"retention must be positive and finite, got {self.retention}")

    @classmethod
    def small(cls, **overrides) -> "SSDConfig":
        """Default experiment-sized device (64 MiB raw)."""
        return cls(geometry=NandGeometry.small(), **overrides)

    @classmethod
    def tiny(cls, **overrides) -> "SSDConfig":
        """Unit-test-sized device (1 MiB raw).

        Tiny arrays need generous over-provisioning: greedy GC requires
        at least 3 erase blocks of slack, which is a large share of an
        8-block device.
        """
        overrides.setdefault("op_ratio", 0.45)
        return cls(geometry=NandGeometry.tiny(), **overrides)
