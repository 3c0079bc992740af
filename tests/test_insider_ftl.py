"""Insider FTL: backup logging, pinned GC, and mapping-table rollback."""

import pytest

from repro.ftl.insider import InsiderFTL
from repro.nand.array import NandArray
from repro.nand.block import PageState
from repro.nand.geometry import NandGeometry


def make_ftl(blocks=8, pages=8, retention=10.0, capacity=None) -> InsiderFTL:
    nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=blocks,
                                  pages_per_block=pages))
    return InsiderFTL(nand, op_ratio=0.45, retention=retention,
                      queue_capacity=capacity)


class TestBackupLogging:
    def test_overwrite_logs_and_pins(self):
        ftl = make_ftl()
        old = ftl.write(1, 1.0)
        ftl.write(1, 2.0)
        assert len(ftl.queue) == 2  # first write + overwrite
        assert ftl.queue.is_pinned(old)

    def test_first_write_logged_unpinned(self):
        ftl = make_ftl()
        ftl.write(1, 1.0)
        assert len(ftl.queue) == 1
        assert ftl.pinned_pages() == 0

    def test_trim_logs_backup(self):
        ftl = make_ftl()
        old = ftl.write(1, 1.0)
        ftl.trim(1, 2.0)
        assert ftl.queue.is_pinned(old)

    def test_old_entries_expire_on_write(self):
        ftl = make_ftl(retention=5.0)
        old = ftl.write(1, 0.0)
        ftl.write(1, 1.0)
        assert ftl.queue.is_pinned(old)
        ftl.write(2, 20.0)  # far in the future: expires everything old
        assert not ftl.queue.is_pinned(old)

    def test_expire_called_exactly_once_per_logged_backup(self):
        """Regression: the overwrite hook used to call ``queue.expire``
        twice per host write (before invalidating the old page and again
        after pushing the backup).  Both hooks now funnel through one
        lazy expiry point, so expiry runs exactly once per write/trim."""
        ftl = make_ftl()
        calls = []

        def counted(now, _orig=ftl.queue.expire):
            calls.append(now)
            return _orig(now)

        ftl.queue.expire = counted
        for i in range(5):
            ftl.write(1, float(i))
        ftl.trim(1, 6.0)
        assert len(calls) == 6  # 5 writes + 1 trim, one expire each
        # And the no-op checks never paid an amortized deque scan.
        assert ftl.queue.expiry_scans == 0


class TestRollback:
    def test_restores_overwritten_block(self):
        ftl = make_ftl()
        ftl.write(1, 1.0, payload=b"original")
        ftl.write(1, 12.0, payload=b"encrypted")
        report = ftl.rollback(now=13.0)
        assert ftl.read(1).payload == b"original"
        assert report.lbas_restored == 1

    def test_respects_retention_boundary(self):
        """Data overwritten more than one window ago is deemed safe, and
        blocks that did not exist one window ago roll back to absent."""
        ftl = make_ftl(retention=10.0)
        ftl.write(1, 0.0, payload=b"ancient")
        ftl.write(1, 5.0, payload=b"safe-new")     # expires by t=16
        ftl.write(2, 15.5, payload=b"fresh")       # born inside the window
        ftl.write(2, 15.8, payload=b"fresher")
        report = ftl.rollback(now=16.0)
        # LBA 1's overwrite happened 11 s ago: the new version stays.
        assert ftl.read(1).payload == b"safe-new"
        # LBA 2 did not exist at t-10: it rolls back to unmapped.
        assert not ftl.mapping.is_mapped(2)
        assert report.lbas_unmapped == 1
        assert report.lbas_restored == 0

    def test_unmaps_fresh_first_writes(self):
        """Brand-new blocks written inside the window roll back to absent —
        this is what removes out-of-place ciphertext copies."""
        ftl = make_ftl()
        ftl.write(5, 100.0, payload=b"ciphertext")
        report = ftl.rollback(now=101.0)
        assert not ftl.mapping.is_mapped(5)
        assert report.lbas_unmapped == 1

    def test_multiple_overwrites_restore_oldest_in_window(self):
        ftl = make_ftl()
        ftl.write(1, 0.0, payload=b"v0")
        ftl.write(1, 100.0, payload=b"v1")
        ftl.write(1, 101.0, payload=b"v2")
        ftl.write(1, 102.0, payload=b"v3")
        ftl.rollback(now=103.0)
        # v0 was overwritten at t=100 (inside window): restored.
        assert ftl.read(1).payload == b"v0"

    def test_restores_trimmed_block(self):
        ftl = make_ftl()
        ftl.write(1, 0.0, payload=b"deleted-file")
        ftl.trim(1, 100.0)
        ftl.rollback(now=101.0)
        assert ftl.read(1).payload == b"deleted-file"

    def test_rollback_clears_queue(self):
        ftl = make_ftl()
        ftl.write(1, 0.0)
        ftl.write(1, 1.0)
        ftl.rollback(now=2.0)
        assert len(ftl.queue) == 0
        assert ftl.pinned_pages() == 0

    def test_rollback_keeps_mapping_invariant(self):
        ftl = make_ftl()
        for lba in range(4):
            ftl.write(lba, 0.0, payload=b"old%d" % lba)
        for lba in range(4):
            ftl.write(lba, 100.0, payload=b"new%d" % lba)
        ftl.rollback(now=101.0)
        for lba, ppa in ftl.mapping.items():
            assert ftl.nand.page_state(ppa) is PageState.VALID
            assert ftl.nand.lbas[ppa] == lba

    def test_report_counts(self):
        ftl = make_ftl()
        ftl.write(1, 0.0)     # old and safe by rollback time
        ftl.write(1, 100.0)   # in-window overwrite -> restore old version
        ftl.write(2, 100.1)   # born in-window -> unmap
        ftl.write(2, 100.2)
        report = ftl.rollback(now=101.0)
        assert report.entries_scanned == 3  # the t=0 entry expired
        assert report.lbas_unmapped == 1
        assert report.lbas_restored == 1


class TestPinnedGc:
    def test_gc_relocates_pinned_old_versions(self):
        """GC must copy pinned invalid pages instead of erasing them."""
        ftl = make_ftl(blocks=16, pages=8, capacity=16)
        hot = 10  # pins + valid data must fit the physical array
        for lba in range(ftl.num_lbas):
            ftl.write(lba, 1.0, payload=b"orig%d" % lba)
        # Overwrite the hot set repeatedly within one window: the pinned
        # old versions force GC to relocate them rather than erase.
        for round_number in range(8):
            for lba in range(hot):
                ftl.write(lba, 2.0 + 0.1 * round_number,
                          payload=b"r%d-%d" % (round_number, lba))
        assert ftl.stats.gc_runs > 0
        assert ftl.stats.gc_pinned_copies > 0
        # Rollback restores the versions the (bounded) queue still covers;
        # every pinned page GC relocated must have kept its content (the
        # payload still names its own LBA and an older round).
        report = ftl.rollback(now=3.0)
        assert report.entries_applied > 0
        assert report.lbas_restored > 0
        last_round = 7
        for lba in sorted(report.restored_lbas):
            if not ftl.mapping.is_mapped(lba):
                continue
            payload = ftl.read(lba).payload
            assert payload.endswith(b"-%d" % lba) or payload == b"orig%d" % lba
            assert payload != b"r%d-%d" % (last_round, lba), (
                "rollback must not leave the newest (attacked) version live"
            )

    def test_insider_copies_more_than_conventional(self):
        from repro.ftl.conventional import ConventionalFTL

        def churn(ftl):
            for round_number in range(4):
                for lba in range(ftl.num_lbas):
                    ftl.write(lba, float(round_number))
            return ftl.stats.gc_page_copies

        nand_a = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=12,
                                        pages_per_block=8))
        nand_b = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=12,
                                        pages_per_block=8))
        conventional = churn(ConventionalFTL(nand_a, op_ratio=0.45))
        insider = churn(InsiderFTL(nand_b, op_ratio=0.45, queue_capacity=8))
        assert insider >= conventional

    def test_queue_capacity_defaults_to_half_op(self):
        ftl = make_ftl(blocks=8, pages=8)
        op_pages = ftl.nand.geometry.pages_total - ftl.num_lbas
        assert ftl.queue.capacity == op_pages // 2

    def test_capacity_eviction_bounds_pins(self):
        ftl = make_ftl(capacity=4)
        for lba in range(ftl.num_lbas):
            ftl.write(lba, 1.0)
        for lba in range(ftl.num_lbas):
            ftl.write(lba, 2.0)
        assert len(ftl.queue) <= 4
        assert ftl.queue.evictions > 0
