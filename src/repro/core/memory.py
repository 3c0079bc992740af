"""DRAM budget of the detector's data structures (Table III).

SSD-Insider adds three structures to the firmware: the LBA hash index, the
counting table, and the recovery queue.  The paper sizes them at 42, 12 and
12 bytes per entry and provisions 250 000 / 1 000 / 2 621 440 entries for a
total of 40.03 MB — affordable next to the >=1 GB DRAM of modern SSDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.counting_table import HASH_ENTRY_SIZE_BYTES, TABLE_ENTRY_SIZE_BYTES
from repro.ftl.recovery_queue import ENTRY_SIZE_BYTES as QUEUE_ENTRY_SIZE_BYTES
from repro.units import MIB

#: Entry provisioning used by the paper's Table III.
PAPER_HASH_ENTRIES = 250_000
PAPER_COUNTING_ENTRIES = 1_000
PAPER_QUEUE_ENTRIES = 2_621_440


@dataclass(frozen=True)
class MemoryBudget:
    """Provisioned entry counts and the DRAM they need."""

    hash_entries: int
    counting_entries: int
    queue_entries: int

    @property
    def hash_bytes(self) -> int:
        """Hash-table DRAM in bytes."""
        return self.hash_entries * HASH_ENTRY_SIZE_BYTES

    @property
    def counting_bytes(self) -> int:
        """Counting-table DRAM in bytes."""
        return self.counting_entries * TABLE_ENTRY_SIZE_BYTES

    @property
    def queue_bytes(self) -> int:
        """Recovery-queue DRAM in bytes."""
        return self.queue_entries * QUEUE_ENTRY_SIZE_BYTES

    @property
    def total_bytes(self) -> int:
        """Total extra DRAM in bytes."""
        return self.hash_bytes + self.counting_bytes + self.queue_bytes

    def rows(self) -> List[Tuple[str, int, int, float]]:
        """Table III rows: (structure, unit size, entries, size in MB)."""
        return [
            ("Hash table", HASH_ENTRY_SIZE_BYTES, self.hash_entries,
             self.hash_bytes / MIB),
            ("Counting table", TABLE_ENTRY_SIZE_BYTES, self.counting_entries,
             self.counting_bytes / MIB),
            ("Recovery queue", QUEUE_ENTRY_SIZE_BYTES, self.queue_entries,
             self.queue_bytes / MIB),
        ]


def paper_memory_budget() -> MemoryBudget:
    """The exact provisioning of the paper's Table III (40.03 MB total)."""
    return MemoryBudget(
        hash_entries=PAPER_HASH_ENTRIES,
        counting_entries=PAPER_COUNTING_ENTRIES,
        queue_entries=PAPER_QUEUE_ENTRIES,
    )
