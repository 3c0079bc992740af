"""The brute-force GC victim scan: oracle for the incremental victim index.

:func:`select_victim` walks every block, and every page of every
candidate block to count recovery-queue pins — O(blocks x pages) per call.
:class:`~repro.ftl.victim_index.VictimIndex` must pick exactly the block
this scan picks, for every policy; both score through the shared
:func:`~repro.ftl.victim.score_block`, so their arithmetic is
bit-identical by construction.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.ftl.victim import VictimPolicy, block_newest, score_block
from repro.nand.array import NandArray
from repro.nand.block import PageState


def select_victim(
    nand: NandArray,
    is_candidate: Callable[[int], bool],
    is_pinned: Callable[[int], bool],
    policy: VictimPolicy = VictimPolicy.GREEDY,
    now: float = 0.0,
) -> Optional[int]:
    """Pick the next victim under ``policy``; None when nothing helps."""
    best_block: Optional[int] = None
    best_score = 0.0
    pages = nand.geometry.pages_per_block
    for global_block in range(nand.num_blocks):
        if not is_candidate(global_block):
            continue
        block = nand.block(global_block)
        if not block.is_full or block.invalid_count == 0:
            continue
        reclaimable = block.invalid_count - _count_pinned(
            nand, global_block, is_pinned
        )
        if reclaimable <= 0:
            continue
        score = score_block(
            policy, reclaimable, pages, block.erase_count,
            block_newest(nand.written_at, global_block * pages,
                         block.write_pointer), now,
        )
        if score > best_score:
            best_score = score
            best_block = global_block
    return best_block


def block_ppas(nand: NandArray, global_block: int) -> range:
    """The flat PPAs of one erase block."""
    start = global_block * nand.geometry.pages_per_block
    return range(start, start + nand.geometry.pages_per_block)


def _count_pinned(
    nand: NandArray, global_block: int, is_pinned: Callable[[int], bool]
) -> int:
    count = 0
    for ppa in block_ppas(nand, global_block):
        if nand.states[ppa] is PageState.INVALID and is_pinned(ppa):
            count += 1
    return count
