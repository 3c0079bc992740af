"""The per-block host I/O path: oracle for the run-at-a-time device path.

The device used to move every host request one 4-KB block at a time:
``SimulatedSSD._read_block``/``_write_block`` per block, each calling the
single-block ``PageMappedFTL.read``/``write``, which programmed one page,
updated one mapping entry, invalidated one old page and logged one queue
entry.  The production path now moves one *run* of blocks per call
(``write_span``/``read_span``, ``NandArray.program_many``,
``RecoveryQueue.log_run``).  This module keeps the per-block loop, built
from the same single-page NAND and single-entry queue primitives, so the
equivalence tests can require both paths to leave identical state behind.
Likewise GC and block retirement used to relocate one page per NAND
program, remapping each copy around verify failures on its own;
:meth:`BlockPathFTL._relocate` keeps that loop to check
``PageMappedFTL._relocate``, which programs one chunk per target block.

Use :class:`BlockPathSSD` in place of
:class:`~repro.ssd.device.SimulatedSSD`; its FTL (also after a power
cycle) is a :class:`BlockPathFTL`.
"""

from __future__ import annotations

from typing import Optional

from repro.blockdev.request import IOMode, IORequest
from repro.errors import (
    AddressError,
    ExhaustedRetriesError,
    FtlError,
    OutOfSpaceError,
    ProgramFailError,
    UncorrectableReadError,
    UnmappedReadError,
)
from repro.ftl.insider import InsiderFTL
from repro.nand.block import PageInfo, PageState
from repro.ssd.device import SimulatedSSD
from tests.oracles.victim import block_ppas


class BlockPathFTL(InsiderFTL):
    """An Insider FTL whose host I/O and relocation go one page at a time."""

    def read(self, lba: int, timestamp: float = 0.0) -> PageInfo:
        """Read the live version of ``lba``."""
        self._last_timestamp = max(self._last_timestamp, timestamp)
        ppa = self.mapping.lookup(lba)
        if ppa is None:
            raise UnmappedReadError(f"LBA {lba} has never been written")
        self.stats.host_reads += 1
        self.nand.read(ppa)
        return self.nand.page(ppa)

    def write(self, lba: int, timestamp: float = 0.0,
              payload: Optional[bytes] = None) -> int:
        """Write ``lba``; returns the new physical page address."""
        if not 0 <= lba < self._lba_limit:
            raise AddressError(
                f"LBA {lba} out of range [0, {self._lba_limit})"
            )
        self._last_timestamp = max(self._last_timestamp, timestamp)
        self._ensure_space()
        new_ppa = self._host_program(lba, timestamp, payload)
        old_ppa = self.mapping.update(lba, new_ppa)
        self.stats.host_writes += 1
        if old_ppa is not None:
            self.nand.invalidate(old_ppa)
        expired, evicted = self.queue.log(lba, old_ppa, new_ppa, timestamp)
        if self._queue_note is not None:
            self._queue_note(expired, evicted, self.queue._entries[-1])
        return new_ppa

    def write_span(self, lba: int, length: int, timestamp: float,
                   payload: Optional[bytes] = None) -> Optional[int]:
        """``length`` calls of :meth:`write`, in LBA order."""
        ppa = None
        for offset in range(length):
            try:
                ppa = self.write(lba + offset, timestamp, payload)
            except (ExhaustedRetriesError, OutOfSpaceError) as exc:
                exc.written = offset
                raise
        return ppa

    def _host_program(self, lba: int, timestamp: float,
                      payload: Optional[bytes]) -> int:
        """Program a host write, remapping around verify failures."""
        last: Optional[ProgramFailError] = None
        for _ in range(self.MAX_PROGRAM_ATTEMPTS):
            block = self._host_block()
            try:
                return self.nand.program(block, lba, timestamp, payload)
            except ProgramFailError as exc:
                last = exc
                self.stats.program_fails += 1
                self._retire_block(block)
        raise ExhaustedRetriesError(
            f"write of LBA {lba} failed program verify in "
            f"{self.MAX_PROGRAM_ATTEMPTS} consecutive blocks"
        ) from last


    def _relocate(self, victim: int) -> int:
        """Relocate ``victim``'s survivors one page program at a time."""
        states = self.nand.states
        moved = 0
        for ppa in block_ppas(self.nand, victim):
            state = states[ppa]
            if state is PageState.VALID:
                self._copy_valid_page(ppa)
                moved += 1
            elif state is PageState.INVALID and self._is_pinned(ppa):
                self._copy_pinned_page(ppa)
                moved += 1
        return moved

    def _gc_program(self, lba: Optional[int], written_at: float,
                    payload: Optional[bytes]) -> int:
        """Program a relocation copy, remapping around verify failures."""
        last: Optional[ProgramFailError] = None
        for _ in range(self.MAX_PROGRAM_ATTEMPTS):
            block = self.allocator.gc_block()
            try:
                return self.nand.program(block, lba, written_at, payload)
            except ProgramFailError as exc:
                last = exc
                self.stats.program_fails += 1
                self._retire_block(block)
        raise ExhaustedRetriesError(
            f"relocation of LBA {lba} failed program verify in "
            f"{self.MAX_PROGRAM_ATTEMPTS} consecutive blocks"
        ) from last

    def _copy_valid_page(self, ppa: int) -> None:
        lba = self.nand.lbas[ppa]
        if lba is None or self.mapping.lookup(lba) != ppa:
            raise FtlError(
                f"mapping invariant broken: valid page {ppa} not the live "
                f"copy of its LBA"
            )
        new_ppa = self._gc_program(lba, self.nand.written_at[ppa],
                                   self.nand.payloads[ppa])
        self.mapping.update(lba, new_ppa)
        self.nand.invalidate(ppa)
        self.stats.gc_page_copies += 1
        self.probe.pages_copied(1, 0)

    def _copy_pinned_page(self, ppa: int) -> None:
        nand = self.nand
        new_ppa = self._gc_program(nand.lbas[ppa], nand.written_at[ppa],
                                   nand.payloads[ppa])
        # The relocated copy is still an *old version*, so it is
        # immediately invalid; only the recovery queue keeps it alive.
        nand.invalidate(new_ppa)
        self._on_pinned_moved(ppa, new_ppa)
        self.stats.gc_page_copies += 1
        self.stats.gc_pinned_copies += 1
        self.probe.pages_copied(0, 1)


class BlockPathSSD(SimulatedSSD):
    """A device executing every request one block at a time."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ftl.__class__ = BlockPathFTL

    def power_cycle(self) -> None:
        super().power_cycle()
        self.ftl.__class__ = BlockPathFTL

    def _execute(self, request: IORequest,
                 payload: Optional[bytes] = None) -> Optional[int]:
        if self.detector is not None:
            self.detector.observe(request)
        if request.mode is IOMode.WRITE:
            self._write_run(request.lba, request.length, payload)
            return None
        ppa = None
        for lba in request.lbas():
            ppa = self._read_block(lba)
        return ppa

    def _write_run(self, lba: int, length: int,
                   payload: Optional[bytes]) -> None:
        for offset in range(length):
            self._write_block(lba + offset, payload)

    def _read_block(self, lba: int) -> Optional[int]:
        """Read one block; returns its PPA (None when unmapped or lost)."""
        self.stats.reads += 1
        try:
            self.ftl.read(lba, self.clock.now)
        except UnmappedReadError:
            self.stats.unmapped_reads += 1
            return None
        except UncorrectableReadError as exc:
            self.stats.uncorrectable_reads += 1
            self._media_degrade("uncorrectable_read", lockdown=False,
                                lba=lba, retries=exc.retries)
            return None
        return self.ftl.mapping.lookup(lba)

    def _write_block(self, lba: int, payload: Optional[bytes]) -> None:
        if self.read_only:
            self.stats.dropped_writes += 1
            return
        if self.detector is not None and hasattr(self.detector.tree,
                                                 "observe_write"):
            self.detector.tree.observe_write(payload)
        self.stats.writes += 1
        try:
            self.ftl.write(lba, self.clock.now, payload)
        except ExhaustedRetriesError:
            self.stats.failed_writes += 1
            self._media_degrade("program_retries_exhausted", lockdown=True,
                                lba=lba)
        except OutOfSpaceError:
            self.stats.failed_writes += 1
            self._media_degrade("out_of_space", lockdown=True, lba=lba)
