"""NAND chip: the per-chip operation counters.

The array keeps every erase block in one flat list indexed by global
block number (``chip * blocks_per_chip + block``); a chip only
attributes the page and block operations that land on it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ChipCounters:
    """Lifetime operation counts for a chip."""

    reads: int = 0
    programs: int = 0
    erases: int = 0
    #: Page programs on this chip that failed verify (per-chip health
    #: attribution; the array-wide totals live in
    #: :class:`~repro.nand.ecc.ReliabilityCounters`).
    program_fails: int = 0
    #: Block erases on this chip that failed verify.
    erase_fails: int = 0


class NandChip:
    """One NAND die: the counters of the operations that landed on it."""

    def __init__(self) -> None:
        self.counters = ChipCounters()
