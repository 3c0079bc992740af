"""The SSD-Insider FTL: delayed deletion turned into instant recovery.

Differences from the conventional FTL (all from §III-C of the paper):

* every overwrite/trim logs a :class:`~repro.ftl.recovery_queue.BackupEntry`;
* old physical pages referenced by unexpired entries are *pinned*: garbage
  collection must relocate them instead of erasing them (the extra page
  copies measured in Fig. 9);
* :meth:`InsiderFTL.rollback` walks the queue back-to-front and restores the
  mapping table to its state one retention window ago — touching only
  mapping entries, never copying data, which is why recovery completes in
  far under a second (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.ftl.base import PageMappedFTL
from repro.ftl.gc import GcPolicy
from repro.ftl.recovery_queue import BackupEntry, RecoveryQueue
from repro.nand.array import NandArray
from repro.nand.block import PageState
from repro.obs.probe import NULL_PROBE, Probe


@dataclass
class RollbackReport:
    """What a rollback did, for experiment reporting."""

    triggered_at: float
    entries_scanned: int
    entries_applied: int
    lbas_restored: int
    lbas_unmapped: int
    mapping_updates: int
    restored_lbas: Set[int] = field(default_factory=set)


class InsiderFTL(PageMappedFTL):
    """Page-mapping FTL with a recovery queue and mapping-table rollback."""

    def __init__(
        self,
        nand: NandArray,
        op_ratio: float = 0.125,
        gc_policy: Optional[GcPolicy] = None,
        retention: float = 10.0,
        queue_capacity: Optional[int] = None,
        probe: Probe = NULL_PROBE,
    ) -> None:
        super().__init__(nand, op_ratio=op_ratio, gc_policy=gc_policy,
                         probe=probe)
        if queue_capacity is None:
            # Provision the queue against the over-provisioned space: pinned
            # old versions may consume at most half of it, leaving the rest
            # as GC working room.  Real firmware sizes this the same way —
            # Table III's 2,621,440 entries are a fixed DRAM/flash budget.
            op_pages = nand.geometry.pages_total - self.mapping.num_lbas
            queue_capacity = max(1, op_pages // 2)
        self.queue = RecoveryQueue(retention=retention, capacity=queue_capacity)
        # Pin transitions feed the victim index: a pinned old version is
        # not reclaimable, and the per-block pinned counters are what let
        # GC select victims (and size relocations) without page walks.
        self.queue.on_pin = self.victim_index.pin
        self.queue.on_unpin = self.victim_index.unpin
        #: Called after every logged entry; None (no call at all) unless
        #: the probe watches the queue.
        self._queue_note = probe.queue_note(self.queue)

    # -- hooks ------------------------------------------------------------

    def _log_backups(self, lba: int, old_ppas, new_ppas,
                     timestamp: float) -> None:
        """Log a run of supersessions (overwrites or a trim) into the queue.

        Dropping the old physical pages is baseline supersede work the
        conventional FTL pays too, so it is done before this hook runs;
        the ``queue.update`` profile layer then measures only what the
        recovery queue *adds* to the write path.  One queue call per run:
        expiry is checked once (the run shares one timestamp) and the
        queue's cached head timestamp makes that check O(1) and
        allocation-free whenever the window has not moved past the oldest
        entry.
        """
        self.queue.log_run(lba, old_ppas, new_ppas, timestamp,
                           self._queue_note)

    def _is_pinned(self, ppa: int) -> bool:
        return self.queue.is_pinned(ppa)

    def _on_pinned_moved(self, old_ppa: int, new_ppa: int) -> None:
        self.queue.repin(old_ppa, new_ppa)

    # -- recovery ----------------------------------------------------------

    def rollback(self, now: float,
                 lba_range: Optional[tuple] = None) -> RollbackReport:
        """Restore the mapping table to its state ``retention`` seconds ago.

        Implements Fig. 5: entries older than the window are first expired
        (their new versions are deemed safe); the remaining entries are
        applied from the back of the queue to the front so each LBA ends up
        pointing at its *oldest* in-window version — the version that was
        live just before the window opened.

        ``lba_range`` (inclusive start, exclusive end) restricts the
        rollback to one logical region — per-namespace recovery: other
        tenants' recent writes stay untouched and their backups stay
        queued.
        """
        self.queue.expire(now)
        if lba_range is None:
            entries = self.queue.drain()
        else:
            start, end = lba_range
            entries = self.queue.drain(
                lambda entry: start <= entry.lba < end
            )
        report = RollbackReport(
            triggered_at=now,
            entries_scanned=len(entries),
            entries_applied=0,
            lbas_restored=0,
            lbas_unmapped=0,
            mapping_updates=0,
        )
        restored: Set[int] = set()
        unmapped: Set[int] = set()
        for entry in reversed(entries):
            self._apply_entry(entry, restored, unmapped, report)
            report.entries_applied += 1
        report.lbas_restored = len(restored)
        report.lbas_unmapped = len(unmapped)
        report.restored_lbas = restored | unmapped
        return report

    def _apply_entry(
        self,
        entry: BackupEntry,
        restored: Set[int],
        unmapped: Set[int],
        report: RollbackReport,
    ) -> None:
        current = self.mapping.lookup(entry.lba)
        if current is not None and self.nand.page_state(current) is PageState.VALID:
            self.nand.invalidate(current)
        if entry.old_ppa is None:
            # First-ever write within the window: roll back to "not present".
            self.mapping.unmap(entry.lba)
            unmapped.add(entry.lba)
            restored.discard(entry.lba)
        else:
            self._revalidate(entry.old_ppa)
            self.mapping.update(entry.lba, entry.old_ppa)
            restored.add(entry.lba)
            unmapped.discard(entry.lba)
        report.mapping_updates += 1

    def _revalidate(self, ppa: int) -> None:
        """Bring an old-version page back to VALID as the live copy.

        Routed through the NAND array (not a direct page mutation) so the
        victim index hears about the block's valid-count change; a FREE
        page — an old version erased while pinned — is rejected there.
        """
        self.nand.revalidate(ppa)

    # -- power-loss recovery --------------------------------------------------

    @classmethod
    def rebuild(cls, nand: NandArray, op_ratio: float = 0.125,
                gc_policy=None, **kwargs) -> "InsiderFTL":
        """Reconstruct the FTL *and its recovery queue* from NAND.

        The queue is DRAM-resident, but the information it carries is not
        lost with power: every superseded version still sits in flash with
        its (LBA, timestamp) out-of-band record.  The rebuild collects
        each LBA's version chain and re-logs every supersession that
        happened within the retention window, so rollback coverage
        survives a power cycle.  (Trims are the exception: an unmapped
        LBA's deletion time left no trace, so those backups are gone —
        a real deployment would journal trims if it cared.)
        """
        ftl = super().rebuild(nand, op_ratio=op_ratio, gc_policy=gc_policy,
                              **kwargs)
        pages_per_block = nand.geometry.pages_per_block
        versions = {}  # lba -> [(written_at, ppa), ...]
        for global_block in range(nand.num_blocks):
            block = nand.block(global_block)
            if block.is_bad:
                continue
            base = global_block * pages_per_block
            for ppa in range(base, base + block.write_pointer):
                lba = nand.lbas[ppa]
                if lba is None or lba >= ftl.num_lbas:
                    continue
                versions.setdefault(lba, []).append(
                    (nand.written_at[ppa], ppa)
                )
        horizon = ftl._last_timestamp - ftl.queue.retention
        entries = []
        for lba, chain in versions.items():
            chain.sort()
            for (old_ts, old_ppa), (new_ts, new_ppa) in zip(chain, chain[1:]):
                if new_ts > horizon:
                    entries.append(
                        BackupEntry(lba=lba, old_ppa=old_ppa,
                                    new_ppa=new_ppa, timestamp=new_ts)
                    )
        entries.sort(key=lambda entry: entry.timestamp)
        for entry in entries:
            ftl.queue.push(entry)
        return ftl

    # -- introspection -----------------------------------------------------

    def _pinned_ppas(self):
        """The queue's authoritative pin set, for victim-index audits."""
        return tuple(self.queue._pinned)

    def pinned_pages(self) -> int:
        """Old-version pages currently protected from GC."""
        return self.queue.pinned_count
