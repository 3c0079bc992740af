"""Erase block counters and the page vocabulary.

The NAND rules the FTL must design around — pages are programmed
sequentially within a block and never reprogrammed without an erase
(out-of-place update), and an erase wipes the whole block at once (delayed
deletion of old data) — are enforced by
:class:`~repro.nand.array.NandArray`, which keeps every page's state,
payload and out-of-band (OOB) record (the LBA it was written for and the
write timestamp) in flat per-PPA lists.  A :class:`Block` holds only the
per-block counters those rules need.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional


class PageState(enum.Enum):
    """Lifecycle of a physical page."""

    FREE = "free"        #: erased, programmable
    VALID = "valid"      #: holds the live copy of some LBA
    INVALID = "invalid"  #: superseded by a newer write; awaiting erase


class PageInfo(NamedTuple):
    """A snapshot of one physical page: state, OOB record and payload."""

    state: PageState
    lba: Optional[int]
    written_at: float
    payload: Optional[bytes]


class Block:
    """One erase block's counters: a write pointer over ``num_pages`` pages."""

    __slots__ = ("num_pages", "write_pointer", "valid_count", "erase_count",
                 "is_bad", "fail_next_erase")

    def __init__(self, num_pages: int) -> None:
        self.num_pages = num_pages
        self.write_pointer = 0
        self.valid_count = 0
        self.erase_count = 0
        #: Worn-out flag: set when an erase fails; the FTL retires the block.
        self.is_bad = False
        #: Fault injection: the next erase attempt fails and marks the block
        #: bad (how real blocks die — erase/program verify errors).
        self.fail_next_erase = False

    @property
    def is_full(self) -> bool:
        """True when every page has been programmed since the last erase."""
        return self.write_pointer >= self.num_pages

    @property
    def free_pages(self) -> int:
        """Programmable pages remaining."""
        return self.num_pages - self.write_pointer

    @property
    def invalid_count(self) -> int:
        """Programmed pages that no longer hold live data."""
        return self.write_pointer - self.valid_count
