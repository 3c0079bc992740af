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
from typing import List, Optional, Set

from repro.ftl.base import PageMappedFTL
from repro.ftl.gc import GcPolicy
from repro.ftl.recovery_queue import BackupEntry, RecoveryQueue
from repro.nand.array import NandArray
from repro.nand.block import PageState
from repro.obs import Observability


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

    @property
    def touched_lbas(self) -> int:
        """Distinct LBAs whose mapping changed."""
        return self.lbas_restored + self.lbas_unmapped


class InsiderFTL(PageMappedFTL):
    """Page-mapping FTL with a recovery queue and mapping-table rollback."""

    def __init__(
        self,
        nand: NandArray,
        op_ratio: float = 0.125,
        gc_policy: Optional[GcPolicy] = None,
        retention: float = 10.0,
        queue_capacity: Optional[int] = None,
        obs: Optional[Observability] = None,
        mapping_backend: str = "flat",
    ) -> None:
        super().__init__(nand, op_ratio=op_ratio, gc_policy=gc_policy,
                         obs=obs, mapping_backend=mapping_backend)
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
        self._m_queue_depth = None
        self._m_queue_pinned = None
        self._m_queue_evictions = None
        self._m_queue_occupancy = None
        #: Whether queue transitions need folding into tracer/metrics/
        #: flight recorder at all — cached so the supersede hot path pays
        #: one attribute test when none of them is armed.
        self._note_changes = (
            self.obs.armed_tracer or self.obs.armed_metrics
            or self.obs.flightrec is not None
        )
        if self.obs.armed_metrics:
            metrics = self.obs.metrics
            self._m_queue_depth = metrics.gauge(
                "recovery_queue_depth", "Backup entries currently queued."
            )
            self._m_queue_pinned = metrics.gauge(
                "recovery_queue_pinned_pages",
                "Old-version physical pages pinned against GC.",
            )
            self._m_queue_evictions = metrics.counter(
                "recovery_queue_evictions_total",
                "Entries evicted early because the queue hit capacity "
                "(each one is in-window recovery coverage lost).",
            )
            # Mergeable occupancy distribution: depth counts start at 1,
            # so one unit of resolution below that is plenty.
            self._m_queue_occupancy = metrics.loghistogram(
                "recovery_queue_occupancy",
                "Queue depth sampled at every queue transition.",
                min_value=1.0,
            )

    # -- hooks ------------------------------------------------------------

    def _on_superseded(
        self, lba: int, old_ppa: Optional[int], new_ppa: int, timestamp: float
    ) -> None:
        # Dropping the old physical page is baseline supersede work —
        # the conventional FTL pays the exact same invalidate with no
        # queue at all (PageMappedFTL._on_superseded) — so it stays
        # outside _log_backup, whose profile layer (queue.update) then
        # measures only what the recovery queue *adds* to the write path.
        if old_ppa is not None:
            self.nand.invalidate(old_ppa)
        self._log_backup(lba, old_ppa, new_ppa, timestamp)

    def _on_trimmed(self, lba: int, old_ppa: int, timestamp: float) -> None:
        self.nand.invalidate(old_ppa)
        self._log_backup(lba, old_ppa, None, timestamp)

    def _log_backup(self, lba: int, old_ppa: Optional[int],
                    new_ppa: Optional[int], timestamp: float) -> None:
        """Log one supersession (overwrite or trim) into the queue.

        The single lazy expiry point for the whole write path: both the
        overwrite and the trim hook funnel here, so expiry is checked
        exactly once per logged backup — and the queue's cached head
        timestamp makes that check O(1) and allocation-free whenever the
        window has not moved past the oldest entry.
        """
        expired, evicted = self.queue.log(lba, old_ppa, new_ppa, timestamp)
        if self._note_changes:
            self._note_queue_change(timestamp, expired, evicted,
                                    pinned=old_ppa is not None)

    def _note_queue_change(self, timestamp, expired, evicted, pinned) -> None:
        """Fold one queue transition into the tracer and the gauges."""
        tracer = self.obs.tracer
        if tracer.enabled:
            if pinned:
                tracer.instant("queue.pin", category="queue",
                               sim_time=timestamp)
            if expired:
                tracer.instant("queue.expire", category="queue",
                               sim_time=timestamp, entries=len(expired))
            for entry in evicted:
                tracer.instant("queue.evict", category="queue",
                               sim_time=timestamp, lba=entry.lba)
        if evicted and self._m_queue_evictions is not None:
            self._m_queue_evictions.inc(len(evicted))
        if self._m_queue_depth is not None:
            self._m_queue_depth.set(len(self.queue))
            self._m_queue_pinned.set(self.queue.pinned_count)
            self._m_queue_occupancy.observe(len(self.queue))
        fr = self.obs.flightrec
        if fr is not None:
            if evicted:
                # Each early eviction is in-window recovery coverage lost;
                # the incident report calls these out next to the headroom.
                fr.record_event(
                    "queue_evictions", timestamp, entries=len(evicted)
                )
            fr.sample_queue(timestamp, len(self.queue),
                            self.queue.pinned_count)

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
        geometry = nand.geometry
        versions = {}  # lba -> [(written_at, ppa), ...]
        for global_block in range(nand.num_blocks):
            block = nand.block(global_block)
            if block.is_bad:
                continue
            for page_index in range(block.write_pointer):
                page = block.pages[page_index]
                if page.lba is None or page.lba >= ftl.num_lbas:
                    continue
                ppa = global_block * geometry.pages_per_block + page_index
                versions.setdefault(page.lba, []).append(
                    (page.written_at, ppa)
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

    def recovery_window(self) -> float:
        """The retention window in seconds."""
        return self.queue.retention
