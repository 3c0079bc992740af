"""NAND array: the full channel x way grid addressed by flat PPAs.

The FTL talks to this class only through physical page addresses and global
block indexes; the array keeps every block in one flat list, charges each
operation to its chip's counters, and keeps global operation/latency
accounting.

The array is also where media faults surface: when a
:class:`~repro.faults.injector.FaultInjector` is attached, every
program/read/erase consults it, reads run through the ECC retry loop
(:class:`~repro.nand.ecc.EccConfig`), and the outcomes accumulate in
:class:`~repro.nand.ecc.ReliabilityCounters`.  Without an injector every
operation takes exactly the pre-fault code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import (
    AddressError,
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
    """All chips of an SSD behind a flat physical-page-address space.

    Every erase block lives in one flat list in global-index order
    (``chip * blocks_per_chip + block``), so a PPA reaches its block with
    one division; the chips only carry per-chip operation counters.
    """

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
        geometry = self.geometry
        self._blocks: List[Block] = [
            Block(num_pages=geometry.pages_per_block)
            for _ in range(geometry.blocks_total)
        ]
        self._chips: List[NandChip] = [
            NandChip() for _ in range(geometry.num_chips)
        ]
        # Geometry constants the per-page paths divide by, as plain ints.
        self._blocks_per_chip = geometry.blocks_per_chip
        self._pages_per_block = geometry.pages_per_block
        self._pages_total = geometry.pages_total
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
        if not 0 <= global_block < len(self._blocks):
            raise AddressError(
                f"block {global_block} out of range [0, {len(self._blocks)})"
            )
        return self._blocks[global_block]

    def block_ppa_range(self, global_block: int) -> range:
        """The flat PPAs covered by a global block index."""
        start = global_block * self.geometry.pages_per_block
        return range(start, start + self.geometry.pages_per_block)

    def _locate(self, ppa: int) -> Tuple[int, int]:
        """``(global block, page index)`` of a flat PPA."""
        if not 0 <= ppa < self._pages_total:
            raise ConfigError(
                f"PPA {ppa} out of range [0, {self._pages_total})"
            )
        global_block = ppa // self._pages_per_block
        return global_block, ppa - global_block * self._pages_per_block

    # -- page operations --------------------------------------------------

    def program(self, global_block: int, lba: int, timestamp: float, payload=None) -> int:
        """Program the next page of a block; returns the page's flat PPA.

        The one-page case of :meth:`program_many`.  With a fault injector
        attached, the program may fail its verify step: the page is
        burned (consumed, unreadable) and
        :class:`~repro.errors.ProgramFailError` is raised for the FTL to
        remap the write and retire the block.
        """
        return self.program_many(global_block, ((lba, timestamp, payload),))[0]

    def program_many(self, global_block: int, pages) -> range:
        """Program consecutive pages of one block in a single call.

        ``pages`` is an iterable of ``(lba, timestamp, payload)`` tuples;
        returns the range of flat PPAs programmed, in order.  Host write
        runs and GC bulk relocation both land here: one call and one
        block-listener notification cover the whole run instead of one
        per page.

        With a fault injector attached, each page asks it once, in page
        order — the same draws as one :meth:`program` call per page.  The
        first page that fails verify is burned and
        :class:`~repro.errors.ProgramFailError` is raised; its ``landed``
        counts the pages of this call programmed before it.
        """
        block = self.block(global_block)
        counters = self._chips[global_block // self._blocks_per_chip].counters
        faults = self.faults
        latency = self.latencies.page_program
        breakdown = self.busy_breakdown
        program = block.program
        base = global_block * self._pages_per_block
        first = block.write_pointer
        for lba, timestamp, payload in pages:
            page_index = program(lba, timestamp, payload)
            counters.programs += 1
            # Per-page accumulation (not one multiply) keeps the float
            # busy-time totals bit-identical to one program per call.
            self.busy_time += latency
            breakdown.page_program += latency
            if faults is not None and faults.on_program(global_block):
                block.burn(page_index)
                self.reliability.program_fails += 1
                counters.program_fails += 1
                if self.block_listener is not None:
                    self.block_listener(global_block)
                ppa = base + page_index
                raise ProgramFailError(
                    f"program verify failed at PPA {ppa} (block {global_block})",
                    ppa=ppa,
                    landed=page_index - first,
                )
        if block.write_pointer > first and self.block_listener is not None:
            self.block_listener(global_block)
        return range(base + first, base + block.write_pointer)

    def read(self, ppa: int) -> PageInfo:
        """Read a page by flat PPA.

        With a fault injector attached, the read may come back with raw
        bit errors; the ECC retry loop re-reads with backoff up to the
        configured budget and raises
        :class:`~repro.errors.UncorrectableReadError` when the page stays
        corrupt.
        """
        # _locate, inlined: this runs once per block of every host read.
        if not 0 <= ppa < self._pages_total:
            raise ConfigError(
                f"PPA {ppa} out of range [0, {self._pages_total})"
            )
        global_block = ppa // self._pages_per_block
        page_index = ppa - global_block * self._pages_per_block
        info = self._blocks[global_block].read(page_index)
        self._chips[global_block // self._blocks_per_chip].counters.reads += 1
        latency = self.latencies.page_read
        self.busy_time += latency
        self.busy_breakdown.page_read += latency
        if self.faults is not None:
            fault = self.faults.on_read(ppa)
            if fault is not None:
                self._correct_read(fault, global_block, page_index)
        return info

    def _correct_read(self, fault, global_block: int, page_index: int) -> None:
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
        block = self._blocks[global_block]
        counters = self._chips[global_block // self._blocks_per_chip].counters
        for attempt in range(1, retries + 1):
            block.read(page_index)
            counters.reads += 1
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
        global_block, page_index = self._locate(ppa)
        return self._blocks[global_block].pages[page_index].state

    def invalidate(self, ppa: int) -> None:
        """Mark the page at ``ppa`` invalid (superseded)."""
        global_block, page_index = self._locate(ppa)
        self._blocks[global_block].invalidate(page_index)
        if self.block_listener is not None:
            self.block_listener(global_block)

    def invalidate_many(self, ppas) -> None:
        """Mark a batch of pages invalid, one listener call per block.

        Equivalent to ``invalidate()`` per PPA; the block listener (the
        victim index) only re-reads final per-block state, so firing it
        once per distinct block after the batch is an exact optimisation.
        A PPA out of range raises after the ones before it, whose blocks
        the listener still hears about.
        """
        pages_per_block = self._pages_per_block
        pages_total = self._pages_total
        blocks = self._blocks
        touched = {}
        try:
            for ppa in ppas:
                if not 0 <= ppa < pages_total:
                    raise ConfigError(
                        f"PPA {ppa} out of range [0, {pages_total})"
                    )
                global_block = ppa // pages_per_block
                blocks[global_block].invalidate(
                    ppa - global_block * pages_per_block
                )
                touched[global_block] = None
        finally:
            if self.block_listener is not None:
                for global_block in touched:
                    self.block_listener(global_block)

    def revalidate(self, ppa: int) -> None:
        """Bring an invalid page back to VALID (rollback restoring it)."""
        global_block, page_index = self._locate(ppa)
        self._blocks[global_block].revalidate(page_index)
        if self.block_listener is not None:
            self.block_listener(global_block)

    def erase(self, global_block: int) -> None:
        """Erase a global block.

        With a fault injector attached, the erase may fail its verify
        step: the block is marked bad and
        :class:`~repro.errors.EraseError` is raised — the grown-bad-block
        path the FTL already survives for natural wear-out.
        """
        block = self.block(global_block)
        counters = self._chips[global_block // self._blocks_per_chip].counters
        if self.faults is not None and self.faults.on_erase(global_block):
            block.mark_bad()
            self.reliability.erase_fails += 1
            counters.erase_fails += 1
            self.busy_time += self.latencies.block_erase
            self.busy_breakdown.block_erase += self.latencies.block_erase
            if self.block_listener is not None:
                self.block_listener(global_block)
            raise EraseError(
                f"erase verify failed on block {global_block} (injected wear-out)"
            )
        try:
            block.erase()
        except EraseError:
            # Natural wear-out (fail_next_erase): account it like an
            # injected failure so SMART sees one consistent counter.
            self.reliability.erase_fails += 1
            counters.erase_fails += 1
            self.busy_time += self.latencies.block_erase
            self.busy_breakdown.block_erase += self.latencies.block_erase
            if self.block_listener is not None:
                self.block_listener(global_block)
            raise
        counters.erases += 1
        self.busy_time += self.latencies.block_erase
        self.busy_breakdown.block_erase += self.latencies.block_erase
        if self.block_listener is not None:
            self.block_listener(global_block)

    # -- accounting -------------------------------------------------------

    def count_pages(self, state: PageState) -> int:
        """Count pages in a given state across the whole array."""
        total = 0
        for block in self._blocks:
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
        return [block.erase_count for block in self._blocks]

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
