"""Static wear leveling.

Greedy GC only ever cleans blocks that accumulate invalid pages, so blocks
holding *cold* data are never erased and the erase-count distribution
skews: hot blocks wear out while cold blocks sit at zero.  Static wear
leveling counteracts it by occasionally migrating a cold, little-worn
block's content elsewhere, returning that block to the free pool where hot
traffic will use (and wear) it.

Interaction with SSD-Insider: the migration uses the same relocation path
as GC, so recovery-queue pins are preserved — wear leveling never erases a
pinned old version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class WearLevelConfig:
    """When static wear leveling kicks in.

    Attributes:
        spread_threshold: Trigger when (max - min) per-block erase counts
            reaches this.
        check_every_erases: How often (in GC erases) to check the spread.
    """

    spread_threshold: int = 8
    check_every_erases: int = 16

    def __post_init__(self) -> None:
        if self.spread_threshold < 1:
            raise ConfigError("spread_threshold must be >= 1")
        if self.check_every_erases < 1:
            raise ConfigError("check_every_erases must be >= 1")


class StaticWearLeveler:
    """Migrates cold low-wear blocks so hot traffic can wear them.

    Args:
        config: Trigger thresholds.

    The leveler is handed the page-mapped FTL (conventional or Insider)
    on each call rather than holding it: the FTL owns its leveler, and a
    reference back would make the pair a reference cycle.
    """

    def __init__(self, config: Optional[WearLevelConfig] = None) -> None:
        self.config = config or WearLevelConfig()
        self.migrations = 0
        self._erases_at_last_check = 0

    def maybe_level(self, ftl) -> bool:
        """Check the trigger and migrate at most one block; True if moved."""
        erases = ftl.stats.erases
        if erases - self._erases_at_last_check < self.config.check_every_erases:
            return False
        self._erases_at_last_check = erases
        wear = ftl.nand.wear_stats()
        if wear.spread < self.config.spread_threshold:
            return False
        return self.level_once(ftl)

    def level_once(self, ftl) -> bool:
        """Migrate the coldest low-wear block now; True if one moved."""
        source = self._select_cold_block(ftl)
        if source is None:
            return False
        if not ftl._can_complete(source):
            return False
        ftl._relocate_and_erase(source)
        self.migrations += 1
        return True

    @staticmethod
    def _select_cold_block(ftl) -> Optional[int]:
        """The least-worn, fully-valid, closed block (the cold-data home).

        Fully-valid is the point: blocks with invalid pages will be cleaned
        by normal GC eventually; only blocks GC would never touch need the
        push.
        """
        nand = ftl.nand
        allocator = ftl.allocator
        best: Optional[int] = None
        best_erases = None
        for global_block in range(nand.num_blocks):
            if allocator.is_free(global_block) or allocator.is_active(global_block):
                continue
            block = nand.block(global_block)
            if not block.is_full or block.invalid_count != 0:
                continue
            if best_erases is None or block.erase_count < best_erases:
                best = global_block
                best_erases = block.erase_count
        return best
