"""Workload protocol and shared generator plumbing.

A workload owns an :class:`LbaRegion` (so concurrent workloads never collide
on addresses, just like separate files on one filesystem) and emits a
bounded, time-ordered stream of requests between a start time and a
deadline.  Inter-arrival times come from a seeded exponential process, so
request rates are average rates with realistic jitter and every run is
reproducible from its seed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.blockdev.request import IOMode, IORequest
from repro.errors import WorkloadError
from repro.rand import derive_rng


@dataclass(frozen=True)
class LbaRegion:
    """A contiguous slice of the logical address space."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise WorkloadError(f"region start must be >= 0, got {self.start}")
        if self.length < 1:
            raise WorkloadError(f"region length must be >= 1, got {self.length}")

    @property
    def end(self) -> int:
        """One past the last LBA of the region."""
        return self.start + self.length

    def contains(self, lba: int) -> bool:
        """True when ``lba`` lies inside the region."""
        return self.start <= lba < self.end

    def sub(self, offset: int, length: int) -> "LbaRegion":
        """A sub-region at ``offset`` blocks into this region."""
        if offset + length > self.length:
            raise WorkloadError(
                f"sub-region [{offset}, {offset + length}) exceeds region "
                f"length {self.length}"
            )
        return LbaRegion(start=self.start + offset, length=length)


class Workload(abc.ABC):
    """Base class for request-stream generators.

    Args:
        name: Source label stamped on every request (used only to label
            slices for evaluation — never visible to the detector logic).
        region: LBA region the workload may touch.
        start: Simulated time of the first possible request.
        duration: Length of the activity period in seconds.
        seed: Root seed; each workload derives its own child stream.
        time_scale: Multiplies all inter-arrival gaps; the scenario layer
            uses this to model ransomware slowed by CPU/IO contention.
    """

    def __init__(
        self,
        name: str,
        region: LbaRegion,
        start: float = 0.0,
        duration: float = 60.0,
        seed: int = 0,
        time_scale: float = 1.0,
    ) -> None:
        if duration <= 0:
            raise WorkloadError(f"duration must be positive, got {duration}")
        if start < 0:
            raise WorkloadError(f"start must be >= 0, got {start}")
        if time_scale <= 0:
            raise WorkloadError(f"time_scale must be positive, got {time_scale}")
        self.name = name
        self.region = region
        self.start = start
        self.duration = duration
        self.time_scale = time_scale
        self.rng: np.random.Generator = derive_rng(seed, "workload", name)

    @property
    def deadline(self) -> float:
        """Time after which the workload emits nothing."""
        return self.start + self.duration

    @abc.abstractmethod
    def requests(self) -> Iterator[IORequest]:
        """Yield the workload's requests in non-decreasing time order."""

    # -- helpers for subclasses ------------------------------------------

    def _gap(self, rate_per_s: float) -> float:
        """One exponential inter-arrival gap for an average event rate."""
        if rate_per_s <= 0:
            raise WorkloadError(f"rate must be positive, got {rate_per_s}")
        return float(self.rng.exponential(1.0 / rate_per_s)) * self.time_scale

    def _request(
        self, time: float, lba: int, mode: IOMode, length: int = 1
    ) -> IORequest:
        """Build a request stamped with this workload's name."""
        return IORequest(time, lba, mode, length, self.name)

    def _clip_length(self, lba: int, length: int) -> int:
        """Clamp a run so it stays inside the region."""
        return max(1, min(length, self.region.end - lba))
