"""NAND operation latencies.

The paper cites Micron MT29F8G08AAAWP figures: page read ~50 us, page program
~500 us (its text says "NAND chip latency (50-1000 us)"), and block erase in
the millisecond range.  These latencies dominate I/O time and are what makes
the insider's ~150-250 ns software overhead negligible (Fig. 8 analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigError
from repro.units import MS, US


@dataclass(frozen=True)
class NandLatencies:
    """Seconds per NAND operation."""

    page_read: float = 50 * US
    page_program: float = 500 * US
    block_erase: float = 3 * MS

    def __post_init__(self) -> None:
        for name in ("page_read", "page_program", "block_erase"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")

    def read_retry(self, attempt: int, backoff: float = 2.0) -> float:
        """Latency of ECC read-retry ``attempt`` (1-based) with ``backoff``.

        Each retry re-senses the page with a slower, more conservative
        mode: retry *i* costs ``page_read * backoff ** (i - 1)``.
        """
        if attempt < 1:
            raise ConfigError(f"retry attempt must be >= 1, got {attempt}")
        return self.page_read * backoff ** (attempt - 1)


@dataclass
class LatencyBreakdown:
    """Accumulated simulated NAND busy time, split by operation class.

    The array's flat ``busy_time`` answers "how long was the media busy";
    this breakdown answers "on what" — the simulated-time complement to
    the profiler's wall-time attribution (a page program is 10x a page
    read on the device's clock regardless of how long the Python model
    took to execute it).
    """

    page_read: float = 0.0
    page_program: float = 0.0
    block_erase: float = 0.0
    read_retry: float = 0.0

    def add(self, op: str, seconds: float) -> None:
        """Accumulate ``seconds`` of busy time against operation ``op``."""
        setattr(self, op, getattr(self, op) + seconds)

    def total(self) -> float:
        """Busy time across all operation classes."""
        return (self.page_read + self.page_program
                + self.block_erase + self.read_retry)

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready per-op seconds plus the total."""
        return {
            "page_read_s": self.page_read,
            "page_program_s": self.page_program,
            "block_erase_s": self.block_erase,
            "read_retry_s": self.read_retry,
            "total_s": self.total(),
        }
