"""NAND array: the full channel x way grid addressed by flat PPAs.

The FTL talks to this class only through physical page addresses; the array
translates them to (chip, block, page) per the geometry's layout and keeps
global operation/latency accounting.

The array is also where media faults surface: when a
:class:`~repro.faults.injector.FaultInjector` is attached, every
program/read/erase consults it, reads run through the ECC retry loop
(:class:`~repro.nand.ecc.EccConfig`), and the outcomes accumulate in
:class:`~repro.nand.ecc.ReliabilityCounters`.  Without an injector every
operation takes exactly the pre-fault code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import (
    ConfigError,
    EraseError,
    ProgramFailError,
    UncorrectableReadError,
)
from repro.nand.block import Block, PageInfo, PageState
from repro.nand.chip import NandChip
from repro.nand.ecc import EccConfig, ReliabilityCounters
from repro.nand.geometry import NandGeometry
from repro.nand.latency import LatencyBreakdown, NandLatencies


@dataclass(frozen=True)
class WearStats:
    """Distribution of per-block erase counts."""

    min_erases: int
    max_erases: int
    mean_erases: float
    std_erases: float

    @property
    def spread(self) -> int:
        """Max minus min erase count — what wear leveling minimises."""
        return self.max_erases - self.min_erases


class NandArray:
    """All chips of an SSD behind a flat physical-page-address space."""

    def __init__(
        self,
        geometry: Optional[NandGeometry] = None,
        latencies: Optional[NandLatencies] = None,
        faults=None,
        ecc: Optional[EccConfig] = None,
    ) -> None:
        self.geometry = geometry or NandGeometry.small()
        self.latencies = latencies or NandLatencies()
        #: Optional :class:`~repro.faults.injector.FaultInjector`; None
        #: keeps every operation on the fault-free fast path.
        self.faults = faults
        self.ecc = ecc or EccConfig()
        self.reliability = ReliabilityCounters()
        self._chips: List[NandChip] = [
            NandChip(self.geometry.blocks_per_chip, self.geometry.pages_per_block)
            for _ in range(self.geometry.num_chips)
        ]
        #: Accumulated simulated NAND busy time in seconds.
        self.busy_time = 0.0
        #: The same busy time split by operation class (reads vs programs
        #: vs erases vs ECC retries) — stamped into profile reports.
        self.busy_breakdown = LatencyBreakdown()
        #: Optional callable ``(global_block) -> None`` invoked after any
        #: operation that changes a block's page accounting (program,
        #: invalidate, revalidate, erase — including the failure paths
        #: that mark a block bad).  The FTL's incremental victim index
        #: (:class:`~repro.ftl.victim_index.VictimIndex`) listens here.
        self.block_listener = None
        if faults is not None:
            for global_block in faults.factory_bad_blocks(self.num_blocks):
                self.block(global_block).mark_bad()

    # -- block addressing ----------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Total erase blocks across all chips."""
        return self.geometry.blocks_total

    def chip(self, index: int) -> NandChip:
        """Access a chip by index."""
        return self._chips[index]

    def block(self, global_block: int) -> Block:
        """Access an erase block by its global index."""
        chip_index = global_block // self.geometry.blocks_per_chip
        block_index = global_block % self.geometry.blocks_per_chip
        return self._chips[chip_index].block(block_index)

    def block_ppa_range(self, global_block: int) -> range:
        """The flat PPAs covered by a global block index."""
        start = global_block * self.geometry.pages_per_block
        return range(start, start + self.geometry.pages_per_block)

    # -- page operations --------------------------------------------------

    def program(self, global_block: int, lba: int, timestamp: float, payload=None) -> int:
        """Program the next page of a block; returns the page's flat PPA.

        With a fault injector attached, the program may fail its verify
        step: the page is burned (consumed, unreadable) and
        :class:`~repro.errors.ProgramFailError` is raised for the FTL to
        remap the write and retire the block.
        """
        chip_index = global_block // self.geometry.blocks_per_chip
        block_index = global_block % self.geometry.blocks_per_chip
        chip = self._chips[chip_index]
        page_index = chip.program(block_index, lba, timestamp, payload)
        self.busy_time += self.latencies.page_program
        self.busy_breakdown.page_program += self.latencies.page_program
        ppa = global_block * self.geometry.pages_per_block + page_index
        if self.faults is not None and self.faults.on_program(global_block):
            chip.block(block_index).burn(page_index)
            self.reliability.program_fails += 1
            chip.counters.program_fails += 1
            if self.block_listener is not None:
                self.block_listener(global_block)
            raise ProgramFailError(
                f"program verify failed at PPA {ppa} (block {global_block})",
                ppa=ppa,
            )
        if self.block_listener is not None:
            self.block_listener(global_block)
        return ppa

    def program_many(self, global_block: int, pages) -> List[int]:
        """Program consecutive pages of one block in a single call.

        ``pages`` is a sequence of ``(lba, timestamp, payload)`` tuples;
        returns the flat PPAs programmed, in order.  This is the GC bulk
        relocation path: one call and one block-listener notification
        cover the whole chunk instead of one per page.

        Only callable on a fault-free array: the injector draws RNG per
        program *in call order*, and this path does not consult it, so
        mixing the two would silently desynchronise fault streams.
        """
        if self.faults is not None:
            raise ConfigError(
                "program_many is the fault-free bulk path; use program() "
                "per page when a fault injector is attached"
            )
        chip_index = global_block // self.geometry.blocks_per_chip
        block_index = global_block % self.geometry.blocks_per_chip
        chip = self._chips[chip_index]
        base = global_block * self.geometry.pages_per_block
        latency = self.latencies.page_program
        breakdown = self.busy_breakdown
        ppas: List[int] = []
        for lba, timestamp, payload in pages:
            page_index = chip.program(block_index, lba, timestamp, payload)
            # Per-page accumulation (not one multiply) keeps the float
            # busy-time totals bit-identical to the per-page path.
            self.busy_time += latency
            breakdown.page_program += latency
            ppas.append(base + page_index)
        if ppas and self.block_listener is not None:
            self.block_listener(global_block)
        return ppas

    def read(self, ppa: int) -> PageInfo:
        """Read a page by flat PPA.

        With a fault injector attached, the read may come back with raw
        bit errors; the ECC retry loop re-reads with backoff up to the
        configured budget and raises
        :class:`~repro.errors.UncorrectableReadError` when the page stays
        corrupt.
        """
        chip_index, block_index, page_index = self.geometry.decompose(ppa)
        info = self._chips[chip_index].read(block_index, page_index)
        self.busy_time += self.latencies.page_read
        self.busy_breakdown.page_read += self.latencies.page_read
        if self.faults is not None:
            fault = self.faults.on_read(ppa)
            if fault is not None:
                self._correct_read(fault, chip_index, block_index,
                                   page_index)
        return info

    def _correct_read(self, fault, chip_index: int, block_index: int,
                      page_index: int) -> None:
        """Run the ECC retry loop for one faulty read.

        In-line-correctable faults cost nothing extra; transient faults
        re-read the page (each retry is a real chip read — it counts
        against read disturb too) with latency backoff; hard faults and
        transients needing more retries than the budget allows end in
        :class:`~repro.errors.UncorrectableReadError`.
        """
        if fault.retries_needed == 0 and not fault.hard:
            self.reliability.corrected_reads += 1
            return
        budget = self.ecc.max_read_retries
        retries = budget if fault.hard else min(fault.retries_needed, budget)
        chip = self._chips[chip_index]
        for attempt in range(1, retries + 1):
            chip.read(block_index, page_index)
            retry_cost = self.latencies.read_retry(
                attempt, self.ecc.retry_backoff
            )
            self.busy_time += retry_cost
            self.busy_breakdown.read_retry += retry_cost
            self.reliability.read_retries += 1
        if fault.hard or fault.retries_needed > budget:
            self.reliability.uncorrectable_reads += 1
            raise UncorrectableReadError(
                f"read at PPA {fault.ppa} uncorrectable after "
                f"{retries} retries",
                ppa=fault.ppa,
                retries=retries,
            )
        self.reliability.corrected_reads += 1

    def page_state(self, ppa: int) -> PageState:
        """State of a page without counting a device read."""
        chip_index, block_index, page_index = self.geometry.decompose(ppa)
        return self._chips[chip_index].block(block_index).pages[page_index].state

    def invalidate(self, ppa: int) -> None:
        """Mark the page at ``ppa`` invalid (superseded)."""
        chip_index, block_index, page_index = self.geometry.decompose(ppa)
        self._chips[chip_index].block(block_index).invalidate(page_index)
        if self.block_listener is not None:
            self.block_listener(ppa // self.geometry.pages_per_block)

    def invalidate_many(self, ppas) -> None:
        """Mark a batch of pages invalid, one listener call per block.

        Equivalent to ``invalidate()`` per PPA; the block listener (the
        victim index) only re-reads final per-block state, so firing it
        once per distinct block after the batch is an exact optimisation.
        """
        pages_per_block = self.geometry.pages_per_block
        blocks_per_chip = self.geometry.blocks_per_chip
        chips = self._chips
        touched = {}
        for ppa in ppas:
            global_block = ppa // pages_per_block
            chips[global_block // blocks_per_chip].block(
                global_block % blocks_per_chip
            ).invalidate(ppa % pages_per_block)
            touched[global_block] = None
        if self.block_listener is not None:
            for global_block in touched:
                self.block_listener(global_block)

    def revalidate(self, ppa: int) -> None:
        """Bring an invalid page back to VALID (rollback restoring it)."""
        chip_index, block_index, page_index = self.geometry.decompose(ppa)
        self._chips[chip_index].block(block_index).revalidate(page_index)
        if self.block_listener is not None:
            self.block_listener(ppa // self.geometry.pages_per_block)

    def erase(self, global_block: int) -> None:
        """Erase a global block.

        With a fault injector attached, the erase may fail its verify
        step: the block is marked bad and
        :class:`~repro.errors.EraseError` is raised — the grown-bad-block
        path the FTL already survives for natural wear-out.
        """
        chip_index = global_block // self.geometry.blocks_per_chip
        block_index = global_block % self.geometry.blocks_per_chip
        chip = self._chips[chip_index]
        if self.faults is not None and self.faults.on_erase(global_block):
            chip.block(block_index).mark_bad()
            self.reliability.erase_fails += 1
            chip.counters.erase_fails += 1
            self.busy_time += self.latencies.block_erase
            self.busy_breakdown.block_erase += self.latencies.block_erase
            if self.block_listener is not None:
                self.block_listener(global_block)
            raise EraseError(
                f"erase verify failed on block {global_block} (injected wear-out)"
            )
        try:
            chip.erase(block_index)
        except EraseError:
            # Natural wear-out (fail_next_erase): account it like an
            # injected failure so SMART sees one consistent counter.
            self.reliability.erase_fails += 1
            chip.counters.erase_fails += 1
            self.busy_time += self.latencies.block_erase
            self.busy_breakdown.block_erase += self.latencies.block_erase
            if self.block_listener is not None:
                self.block_listener(global_block)
            raise
        self.busy_time += self.latencies.block_erase
        self.busy_breakdown.block_erase += self.latencies.block_erase
        if self.block_listener is not None:
            self.block_listener(global_block)

    # -- accounting -------------------------------------------------------

    def count_pages(self, state: PageState) -> int:
        """Count pages in a given state across the whole array."""
        total = 0
        for global_block in range(self.num_blocks):
            block = self.block(global_block)
            if state is PageState.FREE:
                total += block.free_pages
            elif state is PageState.VALID:
                total += block.valid_count
            else:
                total += block.invalid_count
        return total

    def total_erases(self) -> int:
        """Total block erases performed so far."""
        return sum(chip.counters.erases for chip in self._chips)

    def erase_counts(self) -> List[int]:
        """Per-block erase counts (the wear profile)."""
        return [
            self.block(global_block).erase_count
            for global_block in range(self.num_blocks)
        ]

    def wear_stats(self) -> "WearStats":
        """Summary of how evenly wear is spread across blocks."""
        counts = self.erase_counts()
        mean = sum(counts) / len(counts)
        variance = sum((c - mean) ** 2 for c in counts) / len(counts)
        return WearStats(
            min_erases=min(counts),
            max_erases=max(counts),
            mean_erases=mean,
            std_erases=variance ** 0.5,
        )

    def total_programs(self) -> int:
        """Total page programs performed so far."""
        return sum(chip.counters.programs for chip in self._chips)
