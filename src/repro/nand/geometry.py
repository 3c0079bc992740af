"""NAND array geometry.

The paper's prototype is an open-channel SSD with 8 channels x 8 ways and
512 GB of raw capacity.  Simulations use scaled-down geometries with the same
structure; :meth:`NandGeometry.paper_prototype` records the real card and
:meth:`NandGeometry.small` is the default experiment size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import KIB


@dataclass(frozen=True)
class NandGeometry:
    """Dimensions of a NAND flash array.

    Attributes:
        channels: Number of independent channels.
        ways: Chips per channel.
        blocks_per_chip: Erase blocks per chip.
        pages_per_block: Pages per erase block.
        page_size: Page payload size in bytes (one logical block: 4 KiB).
    """

    channels: int = 2
    ways: int = 2
    blocks_per_chip: int = 64
    pages_per_block: int = 64
    page_size: int = 4 * KIB

    def __post_init__(self) -> None:
        for name in ("channels", "ways", "blocks_per_chip", "pages_per_block", "page_size"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")

    @property
    def num_chips(self) -> int:
        """Total chips in the array."""
        return self.channels * self.ways

    @property
    def blocks_total(self) -> int:
        """Total erase blocks in the array."""
        return self.num_chips * self.blocks_per_chip

    @property
    def pages_per_chip(self) -> int:
        """Pages per chip."""
        return self.blocks_per_chip * self.pages_per_block

    @property
    def pages_total(self) -> int:
        """Total physical pages in the array."""
        return self.num_chips * self.pages_per_chip

    @property
    def capacity_bytes(self) -> int:
        """Raw capacity in bytes."""
        return self.pages_total * self.page_size

    # -- PPA addressing ------------------------------------------------
    #
    # Physical page addresses (PPAs) are flat integers laid out as
    # chip-major, then block, then page:
    #   ppa = (chip * blocks_per_chip + block) * pages_per_block + page

    def ppa(self, chip: int, block: int, page: int) -> int:
        """Compose a flat physical page address."""
        if not (0 <= chip < self.num_chips):
            raise ConfigError(f"chip {chip} out of range [0, {self.num_chips})")
        if not (0 <= block < self.blocks_per_chip):
            raise ConfigError(f"block {block} out of range [0, {self.blocks_per_chip})")
        if not (0 <= page < self.pages_per_block):
            raise ConfigError(f"page {page} out of range [0, {self.pages_per_block})")
        return (chip * self.blocks_per_chip + block) * self.pages_per_block + page

    def decompose(self, ppa: int) -> tuple:
        """Split a flat PPA into ``(chip, block, page)``."""
        if not (0 <= ppa < self.pages_total):
            raise ConfigError(f"PPA {ppa} out of range [0, {self.pages_total})")
        page = ppa % self.pages_per_block
        block_global = ppa // self.pages_per_block
        block = block_global % self.blocks_per_chip
        chip = block_global // self.blocks_per_chip
        return chip, block, page

    def block_of(self, ppa: int) -> int:
        """Global block index (across all chips) containing a PPA."""
        if not (0 <= ppa < self.pages_total):
            raise ConfigError(f"PPA {ppa} out of range [0, {self.pages_total})")
        return ppa // self.pages_per_block

    # -- canned geometries ----------------------------------------------

    @classmethod
    def paper_prototype(cls) -> "NandGeometry":
        """The paper's 512-GB open-channel card (8 channels x 8 ways).

        Never instantiated page-by-page in tests; provided for capacity and
        DRAM-budget calculations (Table III).
        """
        return cls(
            channels=8,
            ways=8,
            blocks_per_chip=512,
            pages_per_block=4096,
            page_size=4 * KIB,
        )

    @classmethod
    def small(cls) -> "NandGeometry":
        """Default scaled-down geometry for experiments (64 MiB raw)."""
        return cls(channels=2, ways=2, blocks_per_chip=64, pages_per_block=64)

    @classmethod
    def tiny(cls) -> "NandGeometry":
        """Minimal geometry for unit tests (1 MiB raw)."""
        return cls(channels=1, ways=1, blocks_per_chip=8, pages_per_block=32)
