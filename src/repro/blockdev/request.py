"""The block I/O request header.

The paper (§III-B): *"All I/O requests are monitored for ransomware
detection, and each request consists of four items: Time, LBA, IOMode, and
Length."*  This is the complete view the in-SSD detector gets — no payload,
no process names, no file names.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

_INF = float("inf")
_set = object.__setattr__


class IOMode(enum.Enum):
    """Request type: read or write."""

    READ = "R"
    WRITE = "W"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, init=False)
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
            the detector itself, nor by ``==`` and ``hash``.

    Traces hold headers by the million, so the class is slot-backed (no
    per-instance ``__dict__``; docs/performance.md, "Slim headers").
    ``dataclass(slots=True)`` needs Python 3.10, and slotted fields cannot
    carry class-level defaults, so the defaults live in the hand-written
    ``__init__``, which stores each field through ``object.__setattr__``
    past the frozen ``__setattr__``.
    """

    __slots__ = ("time", "lba", "mode", "length", "source")

    time: float
    lba: int
    mode: IOMode
    length: int
    source: Optional[str]

    def __init__(self, time: float, lba: int, mode: IOMode, length: int = 1,
                 source: Optional[str] = None) -> None:
        if not 0 <= time < _INF:  # also false for NaN
            raise ValueError(
                f"request time must be finite and non-negative, got {time}"
            )
        if lba < 0:
            raise ValueError(f"LBA must be non-negative, got {lba}")
        if length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        _set(self, "time", time)
        _set(self, "lba", lba)
        _set(self, "mode", mode)
        _set(self, "length", length)
        _set(self, "source", source)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.time, self.lba, self.mode, self.length) == (
            other.time, other.lba, other.mode, other.length)

    def __hash__(self) -> int:
        return hash((self.time, self.lba, self.mode, self.length))

    def __reduce__(self) -> tuple:
        # The frozen __setattr__ would block pickle's default slot-state
        # restore, so rebuild through __init__ (pickle and copy.deepcopy).
        return (self.__class__,
                (self.time, self.lba, self.mode, self.length, self.source))

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
            yield IORequest(self.time, self.lba + offset, self.mode, 1,
                            self.source)

    def __repr__(self) -> str:
        tag = f", source={self.source!r}" if self.source else ""
        return (
            f"IORequest(t={self.time:.3f}, lba={self.lba}, "
            f"{self.mode.value}, len={self.length}{tag})"
        )


def read(time: float, lba: int, length: int = 1, source: Optional[str] = None) -> IORequest:
    """Convenience constructor for a read request."""
    return IORequest(time, lba, IOMode.READ, length, source)


def write(time: float, lba: int, length: int = 1, source: Optional[str] = None) -> IORequest:
    """Convenience constructor for a write request."""
    return IORequest(time, lba, IOMode.WRITE, length, source)
