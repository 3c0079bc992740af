"""The generic crypto-ransomware block-level behaviour.

All of the paper's samples share one invariant (§III-A): *every* victim
file is read, encrypted, and its original blocks are overwritten soon after
— because leaving the plaintext recoverable would cost the attacker the
ransom.  What varies per sample is where the ciphertext lands
(:class:`OverwriteClass`), how fast the pipeline runs, and how bursty it is.
"""

from __future__ import annotations

import enum
from typing import Iterator

from repro.blockdev.request import IOMode, IORequest
from repro.errors import WorkloadError
from repro.workloads.base import LbaRegion, Workload
from repro.workloads.filespace import FileExtent, FileSpace


class OverwriteClass(enum.Enum):
    """How a sample destroys the original file (Scaife et al. taxonomy)."""

    #: Class A: ciphertext overwrites the original blocks directly.
    IN_PLACE = "A"
    #: Class B: ciphertext is written elsewhere, then the original blocks
    #: are wiped.
    OUT_OF_PLACE = "B"
    #: Class C: the original is deleted and its freed blocks overwritten;
    #: header-level this orders the wipe before the ciphertext write.
    DELETE_REWRITE = "C"


class Ransomware(Workload):
    """A parameterised crypto-ransomware request stream.

    Args:
        name: Sample label (stamped on requests for evaluation).
        region: LBA region holding victim files; classes B/C reserve the
            trailing ``scratch_fraction`` of it for ciphertext copies.
        blocks_per_second: Encryption pipeline throughput in 4-KB blocks/s.
        overwrite_class: Where the ciphertext lands.
        chunk_blocks: Largest single request the sample issues.
        pause_probability: Chance (per file) of going idle — slow samples
            like Jaff stall between files.
        pause_seconds: Mean idle time when a pause happens.
        scratch_fraction: Share of the region reserved for class-B/C copies.
        speed_jitter_sigma: Log-normal sigma of the per-file throughput
            factor.  Real samples speed up and slow down file by file
            (file type, key schedule, host contention), so per-slice
            overwrite counts spread over a wide range — which is also what
            lets a trained tree generalise to samples slower than any it
            saw in training.
    """

    def __init__(
        self,
        name: str,
        region: LbaRegion,
        blocks_per_second: float,
        overwrite_class: OverwriteClass = OverwriteClass.IN_PLACE,
        chunk_blocks: int = 8,
        pause_probability: float = 0.0,
        pause_seconds: float = 1.0,
        scratch_fraction: float = 0.35,
        mean_file_blocks: int = 16,
        speed_jitter_sigma: float = 0.8,
        start: float = 0.0,
        duration: float = 60.0,
        seed: int = 0,
        time_scale: float = 1.0,
    ) -> None:
        super().__init__(
            name=name,
            region=region,
            start=start,
            duration=duration,
            seed=seed,
            time_scale=time_scale,
        )
        if blocks_per_second <= 0:
            raise WorkloadError(f"blocks_per_second must be positive, got {blocks_per_second}")
        if chunk_blocks < 1:
            raise WorkloadError(f"chunk_blocks must be >= 1, got {chunk_blocks}")
        if not (0.0 <= pause_probability <= 1.0):
            raise WorkloadError("pause_probability must be in [0, 1]")
        if not (0.0 < scratch_fraction < 1.0):
            raise WorkloadError("scratch_fraction must be in (0, 1)")
        self.blocks_per_second = blocks_per_second
        self.overwrite_class = overwrite_class
        self.chunk_blocks = chunk_blocks
        self.pause_probability = pause_probability
        self.pause_seconds = pause_seconds
        self.speed_jitter_sigma = speed_jitter_sigma
        self._file_speed_factor = 1.0
        victim_blocks = max(2, int(region.length * (1.0 - scratch_fraction)))
        if victim_blocks >= region.length:
            victim_blocks = region.length - 1
        self.victim_region = region.sub(0, victim_blocks)
        self.scratch_region = region.sub(victim_blocks, region.length - victim_blocks)
        self.filespace = FileSpace(
            self.victim_region, self.rng, mean_blocks=mean_file_blocks
        )
        #: Victim files fully processed in the last generation pass.
        self.files_encrypted = 0

    # -- stream ------------------------------------------------------------

    def requests(self) -> Iterator[IORequest]:
        """Walk victim files in random order, emitting read-then-overwrite."""
        now = self.start
        scratch_cursor = self.scratch_region.start
        self.files_encrypted = 0
        for extent in self.filespace.shuffled(self.rng):
            if now >= self.deadline:
                return
            if self.pause_probability > 0 and self.rng.random() < self.pause_probability:
                now += float(self.rng.exponential(self.pause_seconds)) * self.time_scale
                if now >= self.deadline:
                    return
            if self.speed_jitter_sigma > 0:
                # Clip the factor: files vary, but a sample's pipeline never
                # persistently runs an order of magnitude off its rate.  The
                # asymmetric low bound matters: real samples do crawl when a
                # victim file is large or the host is busy, and those crawl
                # stretches are the training signal that teaches the tree
                # what *slow* ransomware looks like.
                self._file_speed_factor = float(
                    min(3.0, max(0.15,
                                 self.rng.lognormal(0.0, self.speed_jitter_sigma)))
                )
            for request, now in self._process_file(extent, now, scratch_cursor):
                if request.time >= self.deadline:
                    return
                yield request
            if self.overwrite_class is not OverwriteClass.IN_PLACE:
                scratch_cursor = self._advance_scratch(scratch_cursor, extent.length)
            self.files_encrypted += 1

    def _process_file(self, extent: FileExtent, now: float, scratch_cursor: int):
        """Yield ``(request, time_after)`` pairs for one victim file."""
        plan = self._file_plan(extent, scratch_cursor)
        for mode, lba, length in plan:
            now += self._chunk_gap(length)
            yield self._request(now, lba, mode, length), now

    def _file_plan(self, extent: FileExtent, scratch_cursor: int):
        """The ordered chunk list for one file, per the overwrite class."""
        reads = list(self._chunks(extent.start_lba, extent.length, IOMode.READ))
        wipe = list(self._chunks(extent.start_lba, extent.length, IOMode.WRITE))
        if self.overwrite_class is OverwriteClass.IN_PLACE:
            return reads + wipe
        copy_len = min(extent.length, self.scratch_region.end - scratch_cursor)
        copy = (
            list(self._chunks(scratch_cursor, copy_len, IOMode.WRITE))
            if copy_len > 0
            else []
        )
        if self.overwrite_class is OverwriteClass.OUT_OF_PLACE:
            return reads + copy + wipe
        # DELETE_REWRITE: the unlink + secure wipe lands before the copy.
        return reads + wipe + copy

    def _chunks(self, start_lba: int, length: int, mode: IOMode):
        cursor = start_lba
        end = start_lba + length
        while cursor < end:
            chunk = min(self.chunk_blocks, end - cursor)
            yield (mode, cursor, chunk)
            cursor += chunk

    def _chunk_gap(self, length: int) -> float:
        """Time one chunk costs: the pipeline moves each block through a
        read and a write, so each direction gets half the block budget."""
        base = length / (2.0 * self.blocks_per_second * self._file_speed_factor)
        return base * float(self.rng.uniform(0.7, 1.3)) * self.time_scale

    def _advance_scratch(self, cursor: int, used: int) -> int:
        cursor += used
        if cursor >= self.scratch_region.end - 1:
            cursor = self.scratch_region.start  # wrap: reuse scratch space
        return cursor
