"""The block I/O request header.

The paper (§III-B): *"All I/O requests are monitored for ransomware
detection, and each request consists of four items: Time, LBA, IOMode, and
Length."*  This is the complete view the in-SSD detector gets — no payload,
no process names, no file names.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional

_INF = float("inf")


class IOMode(enum.Enum):
    """Request type: read or write."""

    READ = "R"
    WRITE = "W"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class IORequest:
    """One block I/O request header.

    Attributes:
        time: Simulated time in seconds at which the request was issued.
        lba: Starting logical block address (4-KB blocks).
        mode: :data:`IOMode.READ` or :data:`IOMode.WRITE`.
        length: Number of consecutive logical blocks touched (>= 1).
        source: Optional label of the workload that produced the request.
            This is *metadata for evaluation only* — it lets experiments
            label slices as ransomware-active — and is never consulted by
            the detector itself.
    """

    time: float
    lba: int
    mode: IOMode
    length: int = 1
    source: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.time < _INF:  # also false for NaN
            raise ValueError(
                f"request time must be finite and non-negative, got {self.time}"
            )
        if self.lba < 0:
            raise ValueError(f"LBA must be non-negative, got {self.lba}")
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")

    @property
    def is_read(self) -> bool:
        """True for read requests."""
        return self.mode is IOMode.READ

    @property
    def is_write(self) -> bool:
        """True for write requests."""
        return self.mode is IOMode.WRITE

    @property
    def end_lba(self) -> int:
        """One past the last LBA touched by this request."""
        return self.lba + self.length

    def lbas(self) -> Iterator[int]:
        """Iterate over every LBA the request touches."""
        return iter(range(self.lba, self.lba + self.length))

    def split(self) -> Iterator["IORequest"]:
        """Split into unit-length requests at the same timestamp.

        The paper's Algorithm 1 assumes ``Length == 1``; multi-block requests
        are handled by splitting them into per-block headers.
        """
        if self.length == 1:
            yield self
            return
        for offset in range(self.length):
            yield IORequest(
                time=self.time,
                lba=self.lba + offset,
                mode=self.mode,
                length=1,
                source=self.source,
            )

    def __repr__(self) -> str:
        tag = f", source={self.source!r}" if self.source else ""
        return (
            f"IORequest(t={self.time:.3f}, lba={self.lba}, "
            f"{self.mode.value}, len={self.length}{tag})"
        )


def read(time: float, lba: int, length: int = 1, source: Optional[str] = None) -> IORequest:
    """Convenience constructor for a read request."""
    return IORequest(time=time, lba=lba, mode=IOMode.READ, length=length, source=source)


def write(time: float, lba: int, length: int = 1, source: Optional[str] = None) -> IORequest:
    """Convenience constructor for a write request."""
    return IORequest(time=time, lba=lba, mode=IOMode.WRITE, length=length, source=source)
