"""Shared page-mapping FTL machinery.

:class:`PageMappedFTL` implements the write/read/trim paths and greedy GC
once; the conventional and Insider variants differ only in the hooks that
run when a physical page is superseded and in what GC is allowed to reclaim.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import (
    AddressError,
    ConfigError,
    EraseError,
    ExhaustedRetriesError,
    FtlError,
    OutOfSpaceError,
    ProgramFailError,
    UnmappedReadError,
)
from repro.ftl.allocator import BlockAllocator
from repro.ftl.gc import GcPolicy
from repro.ftl.mapping import create_mapping_table
from repro.ftl.stats import FtlStats
from repro.ftl.victim_index import VictimIndex
from repro.nand.array import NandArray
from repro.nand.block import PageInfo, PageState
from repro.obs import Observability


class PageMappedFTL:
    """Page-level mapping FTL with greedy garbage collection.

    Args:
        nand: The NAND array to manage.
        op_ratio: Over-provisioning ratio; the logical space exposed to the
            host is ``pages_total * (1 - op_ratio)`` blocks.
        gc_policy: Trigger/target free-block thresholds for GC.
        obs: Observability bundle (GC spans, victim instants, page-copy
            counters); disabled by default.
        mapping_backend: Translation-table backend name (``"flat"`` or
            ``"dict"``; see :mod:`repro.ftl.mapping`).
    """

    def __init__(
        self,
        nand: NandArray,
        op_ratio: float = 0.125,
        gc_policy: Optional[GcPolicy] = None,
        obs: Optional[Observability] = None,
        mapping_backend: str = "flat",
    ) -> None:
        if not (0.0 < op_ratio < 1.0):
            raise ConfigError(f"op_ratio must be in (0, 1), got {op_ratio}")
        self.nand = nand
        self.gc_policy = gc_policy or GcPolicy()
        num_lbas = int(nand.geometry.pages_total * (1.0 - op_ratio))
        if num_lbas < 1:
            raise ConfigError("over-provisioning leaves no logical space")
        # Greedy GC needs working room: one open host block, one open GC
        # block, and at least one spare to relocate into.  Below ~3 blocks
        # of over-provisioning the FTL can wedge with every page valid.
        op_pages = nand.geometry.pages_total - num_lbas
        if op_pages < 3 * nand.geometry.pages_per_block:
            raise ConfigError(
                f"over-provisioning of {op_pages} pages is less than 3 erase "
                f"blocks ({3 * nand.geometry.pages_per_block} pages); greedy "
                f"GC cannot run safely — raise op_ratio or enlarge the array"
            )
        self.mapping = create_mapping_table(
            mapping_backend, num_lbas, num_ppas=nand.geometry.pages_total
        )
        #: The logical bound :meth:`write` checks against, cached as a
        #: plain int for the per-block path.
        self._lba_limit = num_lbas
        self.allocator = BlockAllocator(nand)
        #: Incrementally maintained victim index: GC selection and
        #: completion checks read it instead of scanning the array.  The
        #: NAND array reports every page-accounting change back to it —
        #: through the deferred ``note`` hook, so the write hot path pays
        #: a set-add per event and the bucket re-file happens once per
        #: dirty block at the next GC selection.
        self.victim_index = VictimIndex(nand)
        nand.block_listener = self.victim_index.note
        self.stats = FtlStats()
        self.obs = obs if obs is not None else Observability.off()
        self._m_gc_copies = None
        self._m_erases = None
        if self.obs.armed_metrics:
            metrics = self.obs.metrics
            self._m_gc_copies = metrics.counter(
                "ftl_gc_page_copies_total",
                "Pages relocated by garbage collection, by kind "
                "(valid = live data, pinned = recovery-queue old versions).",
                labelnames=("kind",),
            )
            self._m_erases = metrics.counter(
                "ftl_erases_total", "Block erases completed."
            )
        self._last_timestamp = 0.0
        #: Optional static wear leveler (attach_wear_leveling()); checked
        #: after each GC round.
        self.wear_leveler = None
        #: Blocks currently mid-retirement (re-entrancy guard: a program
        #: failure during retirement relocation retires the *new* block,
        #: never loops back into one already being drained).
        self._retiring = set()
        # Factory bad blocks (stamped before the FTL boots) are mapped
        # out of the free pool before the first write, like real
        # firmware's bad-block table scan.
        for global_block in range(nand.num_blocks):
            if nand.block(global_block).is_bad:
                self.allocator.retire(global_block)
                self.victim_index.remove(global_block)

    # -- host interface --------------------------------------------------

    @property
    def num_lbas(self) -> int:
        """Logical capacity in 4-KB blocks."""
        return self.mapping.num_lbas

    def read(self, lba: int, timestamp: float = 0.0) -> PageInfo:
        """Read the live version of ``lba``."""
        # Reads advance the FTL's notion of "now" just like writes do:
        # cost-benefit victim selection ages blocks against the newest host
        # I/O, and a read-heavy phase must not freeze that clock.
        self._last_timestamp = max(self._last_timestamp, timestamp)
        ppa = self.mapping.lookup(lba)
        if ppa is None:
            raise UnmappedReadError(f"LBA {lba} has never been written")
        self.stats.host_reads += 1
        return self.nand.read(ppa)

    def write(self, lba: int, timestamp: float = 0.0, payload: Optional[bytes] = None) -> int:
        """Write ``lba``; returns the new physical page address.

        A program-verify failure is survived transparently: the write is
        remapped to a fresh block and the failing block is drained and
        retired (see :meth:`_retire_block`); only
        :class:`~repro.errors.ExhaustedRetriesError` — every replacement
        block failing too — surfaces to the caller.  An ``lba`` outside
        the logical space raises :class:`~repro.errors.AddressError`
        before anything is programmed.
        """
        if not 0 <= lba < self._lba_limit:
            raise AddressError(
                f"LBA {lba} out of range [0, {self._lba_limit})"
            )
        self._last_timestamp = max(self._last_timestamp, timestamp)
        self._ensure_space()
        new_ppa = self._host_program(lba, timestamp, payload)
        old_ppa = self.mapping.update(lba, new_ppa)
        self.stats.host_writes += 1
        self._on_superseded(lba, old_ppa, new_ppa, timestamp)
        return new_ppa

    def write_span(self, lba: int, length: int, timestamp: float) -> None:
        """Write ``length`` consecutive LBAs (no payload) at ``timestamp``.

        Exactly ``length`` calls of :meth:`write`, in LBA order: one FTL
        call per host request instead of one per block.
        """
        write = self.write
        for offset in range(length):
            write(lba + offset, timestamp)

    def trim(self, lba: int, timestamp: float = 0.0) -> None:
        """Discard the live version of ``lba`` (e.g. on file deletion)."""
        self._last_timestamp = max(self._last_timestamp, timestamp)
        old_ppa = self.mapping.unmap(lba)
        self.stats.host_trims += 1
        if old_ppa is not None:
            self._on_trimmed(lba, old_ppa, timestamp)

    # -- programming with remap -------------------------------------------

    #: Distinct blocks one logical program may try before the FTL declares
    #: the media failed (the graceful-degradation boundary).
    MAX_PROGRAM_ATTEMPTS = 4

    def _host_program(self, lba: int, timestamp: float,
                      payload: Optional[bytes]) -> int:
        """Program a host write, remapping around verify failures."""
        last: Optional[ProgramFailError] = None
        for _ in range(self.MAX_PROGRAM_ATTEMPTS):
            try:
                block = self.allocator.host_block()
            except OutOfSpaceError:
                # The free pool ran dry between GC passes (GC may have had
                # to skip victims it could not finish); collect once more
                # now that recent overwrites have created fully-invalid
                # blocks.
                self.collect_garbage()
                block = self.allocator.host_block()
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

    def _retire_block(self, global_block: int) -> None:
        """Drain and permanently retire a block after a program failure.

        Everything that must survive — valid pages and recovery-queue
        pinned old versions — is relocated first, so retirement is
        loss-free for both live data and rollback coverage.  The
        ``_retiring`` guard keeps a failure during the relocation itself
        (which retires the *target* block) from re-entering this block.
        """
        if (global_block in self._retiring
                or self.allocator.is_retired(global_block)):
            return
        self._retiring.add(global_block)
        try:
            # Pull the block from circulation first so the relocation
            # below can never be handed the dying block as a target.
            self.allocator.retire(global_block)
            self.victim_index.remove(global_block)
            geometry = self.nand.geometry
            block = self.nand.block(global_block)
            moved = 0
            for ppa in self.nand.block_ppa_range(global_block):
                page = block.pages[ppa % geometry.pages_per_block]
                if page.state is PageState.VALID:
                    self._copy_valid_page(ppa, page)
                    moved += 1
                elif page.state is PageState.INVALID and self._is_pinned(ppa):
                    self._copy_pinned_page(ppa, page)
                    moved += 1
            self.stats.retirement_copies += moved
            block.mark_bad()
            self.stats.bad_blocks += 1
            if self.obs.armed_tracer and self.obs.tracer.enabled:
                self.obs.tracer.instant(
                    "ftl.block_retired", category="reliability",
                    sim_time=self._last_timestamp, block=global_block,
                    pages_moved=moved,
                )
            fr = self.obs.flightrec
            if fr is not None:
                fr.record_event(
                    "block_retired", self._last_timestamp,
                    block=global_block, pages_moved=moved,
                )
        finally:
            self._retiring.discard(global_block)

    # -- subclass hooks -------------------------------------------------

    def _on_superseded(
        self, lba: int, old_ppa: Optional[int], new_ppa: int, timestamp: float
    ) -> None:
        """Called after a write remaps ``lba``; default: drop the old page."""
        if old_ppa is not None:
            self.nand.invalidate(old_ppa)

    def _on_trimmed(self, lba: int, old_ppa: int, timestamp: float) -> None:
        """Called after a trim unmaps ``lba``; default: drop the old page."""
        self.nand.invalidate(old_ppa)

    def _is_pinned(self, ppa: int) -> bool:
        """True when GC must preserve an invalid page at ``ppa``."""
        return False

    def _on_pinned_moved(self, old_ppa: int, new_ppa: int) -> None:
        """Called when GC relocates a pinned old-version page."""

    # -- garbage collection ----------------------------------------------

    def _ensure_space(self) -> None:
        if self.allocator.free_blocks <= self.gc_policy.trigger_free_blocks:
            self.collect_garbage()

    def collect_garbage(self) -> int:
        """Run GC until the free pool exceeds the target; returns erases done."""
        if not (self.obs.armed_tracer or self.obs.flightrec is not None):
            return self._collect_garbage()
        before_copies = self.stats.gc_page_copies
        before_pinned = self.stats.gc_pinned_copies
        with self.obs.tracer.span("ftl.gc", category="gc") as span:
            erased = self._collect_garbage()
            span.set("erased", erased)
            span.set("page_copies",
                     self.stats.gc_page_copies - before_copies)
            span.set("pinned_copies",
                     self.stats.gc_pinned_copies - before_pinned)
        fr = self.obs.flightrec
        if fr is not None and erased:
            fr.record_event(
                "gc", self._last_timestamp, erased=erased,
                page_copies=self.stats.gc_page_copies - before_copies,
                pinned_copies=self.stats.gc_pinned_copies - before_pinned,
            )
        return erased

    def _collect_garbage(self) -> int:
        erased = 0
        tracer = self.obs.tracer
        while self.allocator.free_blocks <= self.gc_policy.target_free_blocks:
            victim = self.victim_index.select(
                self._gc_candidate,
                policy=self.gc_policy.victim_policy,
                now=self._last_timestamp,
            )
            if victim is not None and tracer.enabled:
                block = self.nand.block(victim)
                tracer.instant(
                    "ftl.gc_victim", category="gc",
                    sim_time=self._last_timestamp, block=victim,
                    valid=block.valid_count, invalid=block.invalid_count,
                )
            if victim is None or not self._can_complete(victim):
                # Either nothing is reclaimable yet, or relocating the best
                # victim would exhaust the pool mid-copy.  Give the host a
                # chance to invalidate more pages; GC runs again before the
                # next allocation.
                break
            self._relocate_and_erase(victim)
            erased += 1
        if erased and self.wear_leveler is not None:
            self.wear_leveler.maybe_level()
        return erased

    def attach_wear_leveling(self, config=None):
        """Enable static wear leveling; returns the leveler for inspection."""
        from repro.ftl.wearlevel import StaticWearLeveler

        self.wear_leveler = StaticWearLeveler(self, config)
        return self.wear_leveler

    def _can_complete(self, victim: int) -> bool:
        """True when relocating ``victim`` cannot strand the allocator.

        Every page that must survive (valid + pinned) needs a slot in the
        GC active block or in a free block *before* the victim's erase
        returns space to the pool.  The pinned count comes straight from
        the victim index, so the check is O(1) — no page walk.
        """
        geometry = self.nand.geometry
        block = self.nand.block(victim)
        needed = block.valid_count + self.victim_index.pinned_in(victim)
        if needed == 0:
            return True
        gc_active = self.allocator.gc_active
        gc_slots = 0
        if gc_active is not None:
            gc_slots = self.nand.block(gc_active).free_pages
        room = gc_slots + self.allocator.free_blocks * geometry.pages_per_block
        return room >= needed

    def _gc_candidate(self, global_block: int) -> bool:
        return not (
            self.allocator.is_free(global_block)
            or self.allocator.is_active(global_block)
            or self.allocator.is_retired(global_block)
        )

    def _relocate_and_erase(self, victim: int) -> None:
        self.stats.gc_runs += 1
        # The bulk path reorders NAND sub-operations (all programs for a
        # chunk, then all invalidations) without changing any end state —
        # but a fault injector draws RNG *per program in call order*, so
        # fault-armed devices keep the original per-page sequence to stay
        # bit-identical with the fault-injection oracle tests.
        if self.nand.faults is None:
            self._relocate_bulk(victim)
        else:
            self._relocate_per_page(victim)
        self._erase_victim(victim)

    def _relocate_per_page(self, victim: int) -> None:
        """Original one-page-at-a-time relocation (fault-armed devices)."""
        geometry = self.nand.geometry
        victim_block = self.nand.block(victim)
        for ppa in self.nand.block_ppa_range(victim):
            page_index = ppa % geometry.pages_per_block
            page = victim_block.pages[page_index]
            if page.state is PageState.VALID:
                self._copy_valid_page(ppa, page)
            elif page.state is PageState.INVALID and self._is_pinned(ppa):
                self._copy_pinned_page(ppa, page)

    def _relocate_bulk(self, victim: int) -> None:
        """Relocate every surviving page of ``victim`` in bulk NAND calls.

        One :meth:`~repro.nand.array.NandArray.program_many` call per
        target block (instead of a Python round-trip per page) and one
        batched invalidation at the end, with the block listener fired
        once per touched block.  Page placement is identical to the
        per-page path: survivors stream into the GC active block in PPA
        order, rolling into fresh blocks exactly where
        :meth:`~repro.ftl.allocator.BlockAllocator.gc_block` would have
        opened them.
        """
        victim_block = self.nand.block(victim)
        base = victim * self.nand.geometry.pages_per_block
        pages = victim_block.pages
        survivors = []
        for page_index in range(victim_block.write_pointer):
            page = pages[page_index]
            state = page.state
            if state is PageState.VALID:
                survivors.append((base + page_index, page, False))
            elif state is PageState.INVALID and self._is_pinned(
                base + page_index
            ):
                survivors.append((base + page_index, page, True))
        if not survivors:
            return
        mapping = self.mapping
        invalidations = []
        pinned_moves = 0
        index = 0
        while index < len(survivors):
            target = self.allocator.gc_block()
            room = self.nand.block(target).free_pages
            chunk = survivors[index:index + room]
            new_ppas = self.nand.program_many(
                target,
                [(page.lba, page.written_at, page.payload)
                 for _ppa, page, _pinned in chunk],
            )
            for (old_ppa, page, pinned), new_ppa in zip(chunk, new_ppas):
                if pinned:
                    # The relocated copy is still an *old version*: it is
                    # immediately invalid, kept alive only by its pin.
                    invalidations.append(new_ppa)
                    self._on_pinned_moved(old_ppa, new_ppa)
                    pinned_moves += 1
                else:
                    lba = page.lba
                    if lba is None or mapping.lookup(lba) != old_ppa:
                        raise FtlError(
                            f"mapping invariant broken: valid page "
                            f"{old_ppa} not the live copy of its LBA"
                        )
                    mapping.update(lba, new_ppa)
                    invalidations.append(old_ppa)
            index += len(chunk)
        self.nand.invalidate_many(invalidations)
        moved = len(survivors)
        self.stats.gc_page_copies += moved
        self.stats.gc_pinned_copies += pinned_moves
        if self._m_gc_copies is not None:
            if moved > pinned_moves:
                self._m_gc_copies.inc(moved - pinned_moves, kind="valid")
            if pinned_moves:
                self._m_gc_copies.inc(pinned_moves, kind="pinned")

    def _erase_victim(self, victim: int) -> None:
        """Erase a fully-relocated victim, surviving natural wear-out."""
        try:
            self.nand.erase(victim)
        except EraseError:
            # Wear-out: every surviving page was already relocated above,
            # so nothing is lost — retire the block and move on with one
            # less block of capacity (the grown-bad-block path of real
            # firmware).
            self.allocator.retire(victim)
            self.victim_index.remove(victim)
            self.stats.bad_blocks += 1
            return
        self.stats.erases += 1
        if self._m_erases is not None:
            self._m_erases.inc()
        self.allocator.release(victim)

    def _copy_valid_page(self, ppa: int, page: PageInfo) -> None:
        lba = page.lba
        if lba is None or self.mapping.lookup(lba) != ppa:
            raise FtlError(
                f"mapping invariant broken: valid page {ppa} not the live copy of its LBA"
            )
        new_ppa = self._gc_program(lba, page.written_at, page.payload)
        self.mapping.update(lba, new_ppa)
        self.nand.invalidate(ppa)
        self.stats.gc_page_copies += 1
        if self._m_gc_copies is not None:
            self._m_gc_copies.inc(kind="valid")

    def _copy_pinned_page(self, ppa: int, page: PageInfo) -> None:
        new_ppa = self._gc_program(page.lba, page.written_at, page.payload)
        # The relocated copy is still an *old version*, so it is immediately
        # invalid; only the recovery queue keeps it alive.
        self.nand.invalidate(new_ppa)
        self._on_pinned_moved(ppa, new_ppa)
        self.stats.gc_page_copies += 1
        self.stats.gc_pinned_copies += 1
        if self._m_gc_copies is not None:
            self._m_gc_copies.inc(kind="pinned")

    # -- power-loss recovery ------------------------------------------------

    @classmethod
    def rebuild(cls, nand: NandArray, op_ratio: float = 0.125,
                gc_policy: Optional[GcPolicy] = None, **kwargs):
        """Reconstruct FTL state from the NAND array after a power loss.

        Real FTLs persist nothing they cannot rebuild: the logical-to-
        physical map is recovered by scanning every programmed page's
        out-of-band (LBA, timestamp) record — the newest version of each
        LBA wins, all others are re-marked invalid.  The allocator's free
        pool is whatever blocks hold no programmed pages.
        """
        ftl = cls(nand, op_ratio=op_ratio, gc_policy=gc_policy, **kwargs)
        newest = {}  # lba -> (written_at, ppa)
        geometry = nand.geometry
        for global_block in range(nand.num_blocks):
            block = nand.block(global_block)
            if block.write_pointer > 0:
                ftl.allocator.mark_used(global_block)
            if block.is_bad:
                ftl.allocator.retire(global_block)
                continue
            for page_index in range(block.write_pointer):
                page = block.pages[page_index]
                ppa = global_block * geometry.pages_per_block + page_index
                # Derive state purely from OOB: flags are not trusted
                # (a real chip has no "invalid" bit to read back).
                page.state = PageState.INVALID
                if page.lba is None or page.lba >= ftl.num_lbas:
                    continue
                current = newest.get(page.lba)
                if current is None or page.written_at >= current[0]:
                    newest[page.lba] = (page.written_at, ppa)
            block.valid_count = 0
        for lba, (written_at, ppa) in newest.items():
            ftl.mapping.update(lba, ppa)
            global_block = geometry.block_of(ppa)
            block = nand.block(global_block)
            block.pages[ppa % geometry.pages_per_block].state = PageState.VALID
            block.valid_count += 1
            ftl._last_timestamp = max(ftl._last_timestamp, written_at)
        # The scan above rewrote page states wholesale, bypassing the
        # per-operation listener; recompute the victim index once.
        ftl.victim_index.rebuild()
        return ftl

    # -- introspection ----------------------------------------------------

    def utilization(self) -> float:
        """Fraction of logical space currently mapped."""
        return self.mapping.mapped_count() / self.mapping.num_lbas

    def _pinned_ppas(self):
        """The authoritative pin set for index audits (none by default)."""
        return ()

    def audit_victim_index(self) -> None:
        """Recount the victim index from ground truth; raise on drift.

        Tests call this after stressful transitions (retirement,
        power-loss rebuild, rollback, fault sweeps) the same way
        :meth:`~repro.ftl.recovery_queue.RecoveryQueue.audit` is used.
        """
        self.victim_index.audit(
            pinned_ppas=self._pinned_ppas(),
            is_retired=self.allocator.is_retired,
        )
