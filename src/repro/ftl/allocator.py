"""Free-block pool and active-block write allocator.

Host writes and GC relocations each append into their own active block; free
blocks are handed out round-robin across chips so programs spread over the
array the way a channel/way-striping firmware would.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Set

from repro.errors import OutOfSpaceError
from repro.nand.array import NandArray


class BlockAllocator:
    """Tracks free erase blocks and the two active (open) blocks."""

    def __init__(self, nand: NandArray) -> None:
        self._nand = nand
        # Interleave chips so consecutive allocations land on different chips.
        per_chip = nand.geometry.blocks_per_chip
        order = []
        for block_index in range(per_chip):
            for chip_index in range(nand.geometry.num_chips):
                order.append(chip_index * per_chip + block_index)
        self._free: Deque[int] = deque(order)
        self._free_set: Set[int] = set(order)
        self._retired: Set[int] = set()
        self._host_active: Optional[int] = None
        self._gc_active: Optional[int] = None

    @property
    def free_blocks(self) -> int:
        """Fully-erased blocks not yet opened for writing."""
        return len(self._free)

    @property
    def gc_active(self) -> Optional[int]:
        """Global index of the block currently receiving GC relocations."""
        return self._gc_active

    def is_free(self, global_block: int) -> bool:
        """True if the block is in the free pool."""
        return global_block in self._free_set

    def is_active(self, global_block: int) -> bool:
        """True if the block is currently open for host or GC writes."""
        return global_block in (self._host_active, self._gc_active)

    def _take_free(self) -> int:
        if not self._free:
            raise OutOfSpaceError("no free blocks available")
        block = self._free.popleft()
        self._free_set.discard(block)
        return block

    def release(self, global_block: int) -> None:
        """Return an erased block to the free pool."""
        if global_block in self._free_set or global_block in self._retired:
            return
        if global_block == self._host_active:
            self._host_active = None
        if global_block == self._gc_active:
            self._gc_active = None
        self._free.append(global_block)
        self._free_set.add(global_block)

    def mark_used(self, global_block: int) -> None:
        """Remove a block from the free pool without opening it (used when
        rebuilding allocator state from a scanned NAND array)."""
        if global_block in self._free_set:
            self._free_set.discard(global_block)
            self._free.remove(global_block)

    def retire(self, global_block: int) -> None:
        """Permanently remove a (bad) block from circulation."""
        self._retired.add(global_block)
        self._free_set.discard(global_block)
        try:
            self._free.remove(global_block)
        except ValueError:
            pass
        if global_block == self._host_active:
            self._host_active = None
        if global_block == self._gc_active:
            self._gc_active = None

    def is_retired(self, global_block: int) -> bool:
        """True when the block has been retired as bad."""
        return global_block in self._retired

    @property
    def retired_blocks(self) -> int:
        """Blocks permanently out of circulation."""
        return len(self._retired)

    def host_block(self) -> int:
        """The block the next host write should program into."""
        if self._host_active is None or self._nand.block(self._host_active).is_full:
            self._host_active = self._take_free()
        return self._host_active

    def gc_block(self) -> int:
        """The block the next GC relocation should program into."""
        if self._gc_active is None or self._nand.block(self._gc_active).is_full:
            self._gc_active = self._take_free()
        return self._gc_active
