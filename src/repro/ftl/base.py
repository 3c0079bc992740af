"""Shared page-mapping FTL machinery.

:class:`PageMappedFTL` implements the write/read/trim paths and greedy GC
once; the conventional and Insider variants differ only in the hooks that
run when a physical page is superseded and in what GC is allowed to reclaim.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import (
    AddressError,
    ConfigError,
    EraseError,
    ExhaustedRetriesError,
    FtlError,
    OutOfSpaceError,
    ProgramFailError,
    UncorrectableReadError,
    UnmappedReadError,
)
from repro.ftl.allocator import BlockAllocator
from repro.ftl.gc import GcPolicy
from repro.ftl.mapping import MappingTable
from repro.ftl.stats import FtlStats
from repro.ftl.victim_index import VictimIndex
from repro.nand.array import NandArray
from repro.nand.block import PageInfo, PageState
from repro.obs.probe import NULL_PROBE, Probe


class PageMappedFTL:
    """Page-level mapping FTL with greedy garbage collection.

    Args:
        nand: The NAND array to manage.
        op_ratio: Over-provisioning ratio; the logical space exposed to the
            host is ``pages_total * (1 - op_ratio)`` blocks.
        gc_policy: Trigger/target free-block thresholds for GC.
        probe: Where GC passes, victims, page copies, erases and block
            retirements are published; the shared null probe by default.
    """

    def __init__(
        self,
        nand: NandArray,
        op_ratio: float = 0.125,
        gc_policy: Optional[GcPolicy] = None,
        probe: Probe = NULL_PROBE,
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
        self.mapping = MappingTable(num_lbas,
                                    num_ppas=nand.geometry.pages_total)
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
        self.probe = probe
        self._last_timestamp = 0.0
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
        """Read the live version of ``lba``: the one-block :meth:`read_span`.

        Returns a snapshot of the page read.  Raises
        :class:`~repro.errors.UnmappedReadError` for an LBA never written
        and :class:`~repro.errors.UncorrectableReadError` when the page
        stays corrupt after the ECC retry budget.
        """
        _done, unmapped, error, ppa = self.read_span(lba, 1, timestamp)
        if error is not None:
            raise error
        if unmapped:
            raise UnmappedReadError(f"LBA {lba} has never been written")
        return self.nand.page(ppa)

    def read_span(self, lba: int, length: int, timestamp: float) -> Tuple[
            int, int, Optional[UncorrectableReadError], Optional[int]]:
        """Read up to ``length`` consecutive LBAs, stopping after a lost one.

        Returns ``(done, unmapped, error, ppa)``: the first ``done``
        blocks were looked up, ``unmapped`` of them had never been written
        (no NAND read), and ``ppa`` is the last block's physical page
        (None when it was unmapped or lost).  When a page stays corrupt
        after the ECC retry budget, the span stops right after it —
        ``done`` counts it and ``error`` is its
        :class:`~repro.errors.UncorrectableReadError` — so the caller can
        account for it before the rest of the span is read.  A span
        reaching outside the logical space raises
        :class:`~repro.errors.AddressError` before anything is read.
        """
        lookups = self.mapping.lookup_span(lba, length)
        # Reads advance the FTL's notion of "now" just like writes do:
        # cost-benefit victim selection ages blocks against the newest host
        # I/O, and a read-heavy phase must not freeze that clock.
        if timestamp > self._last_timestamp:
            self._last_timestamp = timestamp
        read = self.nand.read
        unmapped = 0
        last = None
        done = 0
        for ppa in lookups:
            done += 1
            if ppa < 0:
                unmapped += 1
                last = None
                continue
            try:
                read(ppa)
            except UncorrectableReadError as exc:
                self.stats.host_reads += done - unmapped
                return done, unmapped, exc, None
            last = ppa
        self.stats.host_reads += length - unmapped
        return length, unmapped, None, last

    def write(self, lba: int, timestamp: float = 0.0, payload: Optional[bytes] = None) -> int:
        """Write ``lba``; returns the new physical page address.

        The one-block :meth:`write_span`, carrying the block's payload.
        """
        return self.write_span(lba, 1, timestamp, payload)

    def write_span(self, lba: int, length: int, timestamp: float,
                   payload: Optional[bytes] = None) -> Optional[int]:
        """Write ``length`` consecutive LBAs at ``timestamp``.

        Returns the physical page of the last block (None for an empty
        span); ``payload``, when given, is stored in every block.  The
        span is written one *run* at a time — the part that fits in the
        open host block — with one bulk NAND program, one mapping loop,
        one batched invalidation and one queue call per run.  Runs are cut
        so that the result equals one single-block write per LBA, in LBA
        order:

        * free-pool checks (and GC) run before each run; a run is one
          block long whenever the pool sits at the GC trigger after the
          host block is opened, because the next block's check would
          collect garbage;
        * a program-verify failure is survived transparently: the pages
          of the run that landed are committed, the failing block is
          drained and retired (see :meth:`_retire_block`), and the failing
          LBA is retried in a fresh block with the attempts it has left.

        Only :class:`~repro.errors.ExhaustedRetriesError` — every
        replacement block failing too — and
        :class:`~repro.errors.OutOfSpaceError` — retirements having eaten
        the spare blocks — surface, with ``written`` counting the blocks
        written before them.  The LBAs before the first
        one outside the logical space are written, then
        :class:`~repro.errors.AddressError` is raised for it.
        """
        limit = self._lba_limit
        if lba < 0:
            raise AddressError(f"LBA {lba} out of range [0, {limit})")
        start = lba
        end = lba + length
        stop = min(end, limit)
        if lba < stop and timestamp > self._last_timestamp:
            self._last_timestamp = timestamp
        allocator = self.allocator
        trigger = self.gc_policy.trigger_free_blocks
        ppa = None
        failures = 0  # failed programs of the LBA at ``lba`` so far
        try:
            while lba < stop:
                if not failures:
                    self._ensure_space()
                block = self._host_block()
                count = 1
                if not failures and allocator.free_blocks > trigger:
                    count = min(stop - lba, self.nand.block(block).free_pages)
                try:
                    ppas = self.nand.program_many(
                        block, range(lba, lba + count),
                        [timestamp] * count, [payload] * count,
                    )
                except ProgramFailError as exc:
                    # A run longer than one block starts with no failures,
                    # so the failing LBA's count restarts whenever pages
                    # before it landed.
                    if exc.landed:
                        self._commit_run(
                            lba, range(exc.ppa - exc.landed, exc.ppa),
                            timestamp,
                        )
                        lba += exc.landed
                    failures += 1
                    self.stats.program_fails += 1
                    self._retire_block(block)
                    if failures == self.MAX_PROGRAM_ATTEMPTS:
                        raise ExhaustedRetriesError(
                            f"write of LBA {lba} failed program verify in "
                            f"{self.MAX_PROGRAM_ATTEMPTS} consecutive blocks"
                        ) from exc
                    continue
                self._commit_run(lba, ppas, timestamp)
                lba += count
                failures = 0
                ppa = ppas[-1]
        except (ExhaustedRetriesError, OutOfSpaceError) as exc:
            # Also raised by a relocation under the span (GC or
            # retirement): either way the span stops at ``lba``.
            exc.written = lba - start
            raise
        if lba < end:
            raise AddressError(f"LBA {lba} out of range [0, {limit})")
        return ppa

    def _commit_run(self, lba: int, ppas, timestamp: float) -> None:
        """Map consecutive LBAs onto freshly programmed pages ``ppas``."""
        update = self.mapping.update
        old_ppas = [update(run_lba, ppa)
                    for run_lba, ppa in enumerate(ppas, lba)]
        self.stats.host_writes += len(ppas)
        self.nand.invalidate_many(
            [old_ppa for old_ppa in old_ppas if old_ppa is not None]
        )
        self._log_backups(lba, old_ppas, ppas, timestamp)

    def trim(self, lba: int, timestamp: float = 0.0) -> None:
        """Discard the live version of ``lba`` (e.g. on file deletion).

        An LBA outside the logical space raises
        :class:`~repro.errors.AddressError` before anything changes.
        """
        old_ppa = self.mapping.unmap(lba)
        self._last_timestamp = max(self._last_timestamp, timestamp)
        self.stats.host_trims += 1
        if old_ppa is not None:
            self.nand.invalidate(old_ppa)
            self._log_backups(lba, (old_ppa,), (None,), timestamp)

    # -- programming with remap -------------------------------------------

    #: Distinct blocks one logical program may try before the FTL declares
    #: the media failed (the graceful-degradation boundary).
    MAX_PROGRAM_ATTEMPTS = 4

    def _host_block(self) -> int:
        """The open host block, collecting garbage once if the pool is dry."""
        try:
            return self.allocator.host_block()
        except OutOfSpaceError:
            # The free pool ran dry between GC passes (GC may have had to
            # skip victims it could not finish); collect once more now
            # that recent overwrites have created fully-invalid blocks.
            self.collect_garbage()
            return self.allocator.host_block()

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
            moved = self._relocate(global_block)
            self.stats.retirement_copies += moved
            self.nand.block(global_block).is_bad = True
            self.stats.bad_blocks += 1
            self.probe.block_retired(self, global_block, moved,
                                     self._last_timestamp)
        finally:
            self._retiring.discard(global_block)

    # -- subclass hooks -------------------------------------------------

    def _log_backups(self, lba: int, old_ppas, new_ppas,
                     timestamp: float) -> None:
        """Called after consecutive LBAs from ``lba`` were remapped.

        ``old_ppas[i]`` is the page ``lba + i`` left (already invalid;
        None if it was unmapped) and ``new_ppas[i]`` the page it now maps
        to (None for a trim).  Default: nothing to record.
        """

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
        self.probe.gc_started(self)
        erased = None
        try:
            erased = self._collect_garbage()
            return erased
        finally:
            self.probe.gc_finished(self, erased, self._last_timestamp)

    def _collect_garbage(self) -> int:
        erased = 0
        while self.allocator.free_blocks <= self.gc_policy.target_free_blocks:
            victim = self.victim_index.select(
                self._gc_candidate,
                policy=self.gc_policy.victim_policy,
                now=self._last_timestamp,
            )
            self.probe.gc_victim(self, victim, self._last_timestamp)
            if victim is None or not self._can_complete(victim):
                # Either nothing is reclaimable yet, or relocating the best
                # victim would exhaust the pool mid-copy.  Give the host a
                # chance to invalidate more pages; GC runs again before the
                # next allocation.
                break
            self._relocate_and_erase(victim)
            erased += 1
        return erased

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
        self._relocate(victim)
        self._erase_victim(victim)

    def _relocate(self, victim: int) -> int:
        """Copy every survivor out of ``victim``; returns the pages moved.

        Survivors — valid pages and recovery-pinned old versions — stream
        into the GC active block in PPA order: one
        :meth:`~repro.nand.array.NandArray.program_many` and one batched
        commit per target block.  A program-verify failure is survived as
        in :meth:`write_span`: the copies that landed are committed (so
        retiring the target relocates them again), the target is retired,
        and the failing page is retried in a fresh block with the
        attempts it has left.  NAND operations and fault draws come in
        the order of one single-page program per survivor.
        """
        nand = self.nand
        base = victim * nand.geometry.pages_per_block
        stop = base + nand.block(victim).write_pointer
        survivors = []
        pinned = []
        for ppa, state in enumerate(nand.states[base:stop], base):
            if state is PageState.VALID:
                survivors.append(ppa)
                pinned.append(False)
            elif state is PageState.INVALID and self._is_pinned(ppa):
                survivors.append(ppa)
                pinned.append(True)
        lbas = nand.lbas
        written_at = nand.written_at
        payloads = nand.payloads
        index = 0
        failures = 0  # failed programs of the survivor at ``index`` so far
        while index < len(survivors):
            target = self.allocator.gc_block()
            chunk = survivors[index:index + nand.block(target).free_pages]
            failure = None
            try:
                new_ppas = nand.program_many(
                    target,
                    [lbas[ppa] for ppa in chunk],
                    [written_at[ppa] for ppa in chunk],
                    [payloads[ppa] for ppa in chunk],
                )
            except ProgramFailError as exc:
                failure = exc
                new_ppas = range(exc.ppa - exc.landed, exc.ppa)
            if new_ppas:
                self._commit_copies(chunk, pinned[index:], new_ppas)
            index += len(new_ppas)
            if failure is None:
                failures = 0
                continue
            failures = failures + 1 if not failure.landed else 1
            self.stats.program_fails += 1
            self._retire_block(target)
            if failures == self.MAX_PROGRAM_ATTEMPTS:
                raise ExhaustedRetriesError(
                    f"relocation of LBA {lbas[survivors[index]]} failed "
                    f"program verify in {self.MAX_PROGRAM_ATTEMPTS} "
                    f"consecutive blocks"
                ) from failure
        return len(survivors)

    def _commit_copies(self, old_ppas, pinned, new_ppas) -> None:
        """Point the mapping and pins at relocated copies ``new_ppas``."""
        lbas = self.nand.lbas
        mapping = self.mapping
        invalidations = []
        pinned_copies = 0
        for old_ppa, is_pinned, new_ppa in zip(old_ppas, pinned, new_ppas):
            if is_pinned:
                # The relocated copy is still an *old version*: it is
                # immediately invalid, kept alive only by its pin.
                invalidations.append(new_ppa)
                self._on_pinned_moved(old_ppa, new_ppa)
                pinned_copies += 1
            else:
                lba = lbas[old_ppa]
                if lba is None or mapping.lookup(lba) != old_ppa:
                    raise FtlError(
                        f"mapping invariant broken: valid page "
                        f"{old_ppa} not the live copy of its LBA"
                    )
                mapping.update(lba, new_ppa)
                invalidations.append(old_ppa)
        self.nand.invalidate_many(invalidations)
        self.stats.gc_page_copies += len(new_ppas)
        self.stats.gc_pinned_copies += pinned_copies
        self.probe.pages_copied(len(new_ppas) - pinned_copies, pinned_copies)

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
        self.probe.block_erased()
        self.allocator.release(victim)

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
        states = nand.states
        for global_block in range(nand.num_blocks):
            block = nand.block(global_block)
            if block.write_pointer > 0:
                ftl.allocator.mark_used(global_block)
            if block.is_bad:
                ftl.allocator.retire(global_block)
                continue
            base = global_block * geometry.pages_per_block
            for ppa in range(base, base + block.write_pointer):
                # Derive state purely from OOB: flags are not trusted
                # (a real chip has no "invalid" bit to read back).
                states[ppa] = PageState.INVALID
                lba = nand.lbas[ppa]
                if lba is None or lba >= ftl.num_lbas:
                    continue
                current = newest.get(lba)
                written_at = nand.written_at[ppa]
                if current is None or written_at >= current[0]:
                    newest[lba] = (written_at, ppa)
            block.valid_count = 0
        for lba, (written_at, ppa) in newest.items():
            ftl.mapping.update(lba, ppa)
            states[ppa] = PageState.VALID
            nand.block(geometry.block_of(ppa)).valid_count += 1
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
