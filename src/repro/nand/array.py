"""NAND array: the full channel x way grid addressed by flat PPAs.

The FTL talks to this class only through physical page addresses and global
block indexes; the array keeps every block's counters in one flat list and
every page's state, OOB record and payload in four flat per-PPA lists,
charges each operation to its chip's counters, and keeps global
operation/latency accounting.

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
    AddressError,
    ConfigError,
    EraseError,
    ProgramError,
    ProgramFailError,
    ReadError,
    UncorrectableReadError,
)
from repro.nand.block import Block, PageInfo, PageState
from repro.nand.chip import NandChip
from repro.nand.ecc import EccConfig, ReliabilityCounters
from repro.nand.geometry import NandGeometry
from repro.nand.latency import LatencyBreakdown, NandLatencies

_FREE = PageState.FREE
_VALID = PageState.VALID
_INVALID = PageState.INVALID


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
    one division; the chips only carry per-chip operation counters.  Page
    data lives in four flat lists indexed by PPA — :attr:`states`,
    :attr:`lbas`, :attr:`written_at` and :attr:`payloads` — which the FTL
    reads directly.  Changes go through the page operations below, which
    keep the block counters and the block listener exact; only the FTL's
    power-loss rebuild rewrites :attr:`states` wholesale.
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
            Block(geometry.pages_per_block)
            for _ in range(geometry.blocks_total)
        ]
        pages_total = geometry.pages_total
        #: Per-PPA page state (:class:`~repro.nand.block.PageState`).
        self.states: List[PageState] = [_FREE] * pages_total
        #: Per-PPA OOB record: the LBA a page was written for (None when
        #: free or burned) and its write timestamp.
        self.lbas: List[Optional[int]] = [None] * pages_total
        self.written_at: List[float] = [0.0] * pages_total
        #: Per-PPA payload (None when free, burned or written without one).
        self.payloads: List[Optional[bytes]] = [None] * pages_total
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
                self.block(global_block).is_bad = True

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

    def _check_ppa(self, ppa: int) -> None:
        """Reject a PPA outside the array."""
        if not 0 <= ppa < self._pages_total:
            raise ConfigError(
                f"PPA {ppa} out of range [0, {self._pages_total})"
            )

    # -- page operations --------------------------------------------------

    def program(self, global_block: int, lba: int, timestamp: float, payload=None) -> int:
        """Program the next page of a block; returns the page's flat PPA.

        The one-page case of :meth:`program_many`.  With a fault injector
        attached, the program may fail its verify step: the page is
        burned (consumed, unreadable) and
        :class:`~repro.errors.ProgramFailError` is raised for the FTL to
        remap the write and retire the block.
        """
        return self.program_many(global_block, (lba,), (timestamp,),
                                 (payload,))[0]

    def program_many(self, global_block: int, lbas, written_at,
                     payloads) -> range:
        """Program consecutive pages of one block in a single call.

        ``lbas``, ``written_at`` and ``payloads`` are parallel sequences,
        one item per page: its OOB LBA, its OOB timestamp and its payload.
        Returns the range of flat PPAs programmed, in order.  Host write
        runs and GC bulk relocation both land here: one slice store per
        page list and one block-listener notification cover the whole
        run.  Pages are programmed sequentially, so a run that does not
        fit in the block's free pages (or a bad block) is rejected with
        :class:`~repro.errors.ProgramError` before any page changes.

        With a fault injector attached, each page asks it once, in page
        order — the same draws as one :meth:`program` call per page.  The
        first page that fails verify is burned — consumed (the write
        pointer stays past it: NAND cannot reprogram it without an erase)
        but INVALID with its OOB record cleared, so neither reads nor a
        power-loss rebuild trust it — and
        :class:`~repro.errors.ProgramFailError` is raised; its ``landed``
        counts the pages of this call programmed before it.
        """
        block = self.block(global_block)
        count = len(lbas)
        first = block.write_pointer
        if block.is_bad:
            raise ProgramError(f"block {global_block} is marked bad")
        if count > block.num_pages - first:
            raise ProgramError(
                f"block {global_block} full: {count} pages do not fit in "
                f"{block.num_pages - first} free"
            )
        failed = -1
        if self.faults is not None:
            on_program = self.faults.on_program
            for index in range(count):
                if on_program(global_block):
                    failed = index
                    lbas, written_at, payloads = (
                        lbas[:index + 1], written_at[:index + 1],
                        payloads[:index + 1])
                    count = index + 1
                    break
        start = global_block * self._pages_per_block + first
        stop = start + count
        self.states[start:stop] = [_VALID] * count
        self.lbas[start:stop] = lbas
        self.written_at[start:stop] = written_at
        self.payloads[start:stop] = payloads
        block.write_pointer = first + count
        block.valid_count += count
        counters = self._chips[global_block // self._blocks_per_chip].counters
        counters.programs += count
        # Per-page accumulation (not one multiply) keeps the float
        # busy-time totals bit-identical to one program per call.
        latency = self.latencies.page_program
        busy = self.busy_time
        breakdown = self.busy_breakdown
        spent = breakdown.page_program
        for _ in range(count):
            busy += latency
            spent += latency
        self.busy_time = busy
        breakdown.page_program = spent
        if failed >= 0:
            burned = stop - 1
            self.states[burned] = _INVALID
            self.lbas[burned] = None
            self.written_at[burned] = 0.0
            self.payloads[burned] = None
            block.valid_count -= 1
            self.reliability.program_fails += 1
            counters.program_fails += 1
        if count and self.block_listener is not None:
            self.block_listener(global_block)
        if failed >= 0:
            raise ProgramFailError(
                f"program verify failed at PPA {burned} (block {global_block})",
                ppa=burned,
                landed=failed,
            )
        return range(start, stop)

    def read(self, ppa: int) -> None:
        """Read a programmed page by flat PPA (charged, nothing returned).

        Counts the chip read and the latency;
        the page's contents are in :attr:`lbas`, :attr:`written_at` and
        :attr:`payloads` at index ``ppa``.  With a fault injector
        attached, the read may come back with raw bit errors; the ECC
        retry loop re-reads with backoff up to the configured budget and
        raises :class:`~repro.errors.UncorrectableReadError` when the page
        stays corrupt.  Old versions (INVALID pages) stay readable:
        recovery depends on it.
        """
        # _check_ppa, inlined: this runs once per block of every host read.
        if not 0 <= ppa < self._pages_total:
            raise ConfigError(
                f"PPA {ppa} out of range [0, {self._pages_total})"
            )
        if self.states[ppa] is _FREE:
            raise ReadError(f"PPA {ppa} has not been programmed")
        global_block = ppa // self._pages_per_block
        self._chips[global_block // self._blocks_per_chip].counters.reads += 1
        latency = self.latencies.page_read
        self.busy_time += latency
        self.busy_breakdown.page_read += latency
        if self.faults is not None:
            fault = self.faults.on_read(ppa)
            if fault is not None:
                self._correct_read(fault, global_block)

    def _correct_read(self, fault, global_block: int) -> None:
        """Run the ECC retry loop for one faulty read.

        In-line-correctable faults cost nothing extra; transient faults
        re-read the page (each retry is a real chip read, counted
        on the chip) with latency backoff; hard faults and
        transients needing more retries than the budget allows end in
        :class:`~repro.errors.UncorrectableReadError`.
        """
        if fault.retries_needed == 0 and not fault.hard:
            self.reliability.corrected_reads += 1
            return
        budget = self.ecc.max_read_retries
        retries = budget if fault.hard else min(fault.retries_needed, budget)
        counters = self._chips[global_block // self._blocks_per_chip].counters
        for attempt in range(1, retries + 1):
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

    def page(self, ppa: int) -> PageInfo:
        """Snapshot of one page's state, OOB record and payload (no read)."""
        self._check_ppa(ppa)
        return PageInfo(self.states[ppa], self.lbas[ppa],
                        self.written_at[ppa], self.payloads[ppa])

    def page_state(self, ppa: int) -> PageState:
        """State of a page without counting a device read."""
        self._check_ppa(ppa)
        return self.states[ppa]

    def invalidate(self, ppa: int) -> None:
        """Mark the page at ``ppa`` invalid (superseded)."""
        self.invalidate_many((ppa,))

    def invalidate_many(self, ppas) -> None:
        """Mark a batch of VALID pages invalid, one listener call per block.

        Equivalent to ``invalidate()`` per PPA; the block listener (the
        victim index) only re-reads final per-block state, so firing it
        once per distinct block after the batch is an exact optimisation.
        A PPA out of range or not VALID raises after the ones before it,
        whose blocks the listener still hears about.
        """
        pages_per_block = self._pages_per_block
        pages_total = self._pages_total
        blocks = self._blocks
        states = self.states
        touched = {}
        try:
            for ppa in ppas:
                if not 0 <= ppa < pages_total:
                    raise ConfigError(
                        f"PPA {ppa} out of range [0, {pages_total})"
                    )
                state = states[ppa]
                if state is not _VALID:
                    raise ProgramError(
                        f"cannot invalidate PPA {ppa} in state {state.value}"
                    )
                states[ppa] = _INVALID
                global_block = ppa // pages_per_block
                blocks[global_block].valid_count -= 1
                touched[global_block] = None
        finally:
            if self.block_listener is not None:
                for global_block in touched:
                    self.block_listener(global_block)

    def revalidate(self, ppa: int) -> None:
        """Bring an invalid page back to VALID (rollback restoring it).

        The inverse of :meth:`invalidate`: rollback re-points a mapping
        entry at a superseded old version, which makes that physical page
        the live copy again.  A FREE page cannot be revalidated — the old
        version would have been erased, which pinning exists to prevent.
        """
        self._check_ppa(ppa)
        state = self.states[ppa]
        if state is _VALID:
            return
        if state is _FREE:
            raise ProgramError(f"cannot revalidate PPA {ppa}: it was erased")
        self.states[ppa] = _VALID
        global_block = ppa // self._pages_per_block
        self._blocks[global_block].valid_count += 1
        if self.block_listener is not None:
            self.block_listener(global_block)

    def erase(self, global_block: int) -> None:
        """Erase a global block, freeing every page.

        Erasing a block that still holds valid pages, or one already
        marked bad, is an FTL bug: it is rejected with
        :class:`~repro.errors.EraseError` before the chip is touched — no
        fault draw, no failure booked, no busy time.  A real erase that
        fails raises the same error and is charged like a successful
        one: an injected verify failure (with a fault injector attached)
        or natural wear-out (``fail_next_erase``) marks the block bad —
        the grown-bad-block path the FTL survives.
        """
        block = self.block(global_block)
        if block.valid_count > 0:
            raise EraseError(f"block {global_block} still holds "
                             f"{block.valid_count} valid pages")
        if block.is_bad:
            raise EraseError(f"block {global_block} is marked bad")
        if self.faults is not None and self.faults.on_erase(global_block):
            block.is_bad = True
            failure = (f"erase verify failed on block {global_block} "
                       f"(injected wear-out)")
        elif block.fail_next_erase:
            block.fail_next_erase = False
            block.is_bad = True
            failure = "erase verify failed; block has worn out"
        else:
            failure = None
        counters = self._chips[global_block // self._blocks_per_chip].counters
        if failure is None:
            # Pages past the write pointer are already erased.
            count = block.write_pointer
            start = global_block * self._pages_per_block
            stop = start + count
            self.states[start:stop] = [_FREE] * count
            self.lbas[start:stop] = [None] * count
            self.written_at[start:stop] = [0.0] * count
            self.payloads[start:stop] = [None] * count
            block.write_pointer = 0
            block.erase_count += 1
            counters.erases += 1
        else:
            # Failed erases go in one ledger, so SMART sees one
            # consistent counter for injected and natural wear-out.
            self.reliability.erase_fails += 1
            counters.erase_fails += 1
        self.busy_time += self.latencies.block_erase
        self.busy_breakdown.block_erase += self.latencies.block_erase
        if self.block_listener is not None:
            self.block_listener(global_block)
        if failure is not None:
            raise EraseError(failure)

    # -- accounting -------------------------------------------------------

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
