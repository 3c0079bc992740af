"""File-extent model: which LBAs belong to which "file".

Ransomware targets documents and images — many small-to-medium files — and
the run-length feature AVGWIO exists precisely because those victim files
occupy short extents.  :class:`FileSpace` lays synthetic files over an LBA
region so ransomware (and apps like compression or installers) can address
realistic extents without a full filesystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.base import LbaRegion


@dataclass(frozen=True)
class FileExtent:
    """One file's contiguous block run."""

    file_id: int
    start_lba: int
    length: int

    @property
    def end_lba(self) -> int:
        """One past the file's last LBA."""
        return self.start_lba + self.length


class FileSpace:
    """Synthetic files packed into an LBA region.

    File sizes follow a log-normal distribution (documents/images cluster
    around tens of KB with a heavy tail), the shape the paper's victim-file
    population implies.

    Args:
        region: Where the files live.
        rng: Seeded generator for sizes and gaps.
        mean_blocks: Median file size in 4-KB blocks.
        sigma: Log-normal shape parameter.
        max_blocks: Hard cap on one file's size.
        gap_blocks: Free blocks left between consecutive files.
    """

    def __init__(
        self,
        region: LbaRegion,
        rng: np.random.Generator,
        mean_blocks: int = 16,
        sigma: float = 1.0,
        max_blocks: int = 256,
        gap_blocks: int = 1,
    ) -> None:
        if mean_blocks < 1:
            raise WorkloadError(f"mean_blocks must be >= 1, got {mean_blocks}")
        if max_blocks < 1:
            raise WorkloadError(f"max_blocks must be >= 1, got {max_blocks}")
        self.region = region
        self._files: List[FileExtent] = []
        cursor = region.start
        file_id = 0
        while cursor < region.end:
            size = int(rng.lognormal(mean=np.log(mean_blocks), sigma=sigma))
            size = max(1, min(size, max_blocks, region.end - cursor))
            self._files.append(FileExtent(file_id=file_id, start_lba=cursor, length=size))
            cursor += size + gap_blocks
            file_id += 1
        if not self._files:
            raise WorkloadError("region too small to hold any file")

    def __len__(self) -> int:
        return len(self._files)

    def __iter__(self) -> Iterator[FileExtent]:
        return iter(self._files)

    def __getitem__(self, index: int) -> FileExtent:
        return self._files[index]

    @property
    def total_blocks(self) -> int:
        """Blocks occupied by all files."""
        return sum(f.length for f in self._files)

    def shuffled(self, rng: np.random.Generator) -> List[FileExtent]:
        """Files in a random visit order (ransomware walks directories in
        whatever order the OS returns them)."""
        order = list(self._files)
        rng.shuffle(order)
        return order

    def sample(self, rng: np.random.Generator) -> FileExtent:
        """One file chosen uniformly at random."""
        return self._files[int(rng.integers(0, len(self._files)))]
