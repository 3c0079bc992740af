"""Page-mapped FTL: write/read paths and greedy garbage collection."""

import pytest

from repro.errors import (
    AddressError,
    ConfigError,
    OutOfSpaceError,
    UnmappedReadError,
)
from repro.ftl.conventional import ConventionalFTL
from repro.ftl.gc import GcPolicy
from repro.nand.array import NandArray
from repro.nand.block import PageState
from repro.nand.geometry import NandGeometry


def small_ftl(op_ratio=0.4) -> ConventionalFTL:
    nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=8,
                                  pages_per_block=8))
    return ConventionalFTL(nand, op_ratio=op_ratio)


class TestBasicIo:
    def test_write_then_read(self):
        ftl = small_ftl()
        ftl.write(3, 1.0, payload=b"hello")
        assert ftl.read(3).payload == b"hello"

    def test_read_unwritten_raises(self):
        with pytest.raises(UnmappedReadError):
            small_ftl().read(0)

    def test_overwrite_returns_new_version(self):
        ftl = small_ftl()
        ftl.write(3, 1.0, payload=b"v1")
        ftl.write(3, 2.0, payload=b"v2")
        assert ftl.read(3).payload == b"v2"

    def test_overwrite_invalidates_old_page(self):
        ftl = small_ftl()
        old = ftl.write(3, 1.0)
        ftl.write(3, 2.0)
        assert ftl.nand.page_state(old) is PageState.INVALID

    def test_trim_unmaps(self):
        ftl = small_ftl()
        ftl.write(3, 1.0)
        ftl.trim(3, 2.0)
        with pytest.raises(UnmappedReadError):
            ftl.read(3)

    def test_logical_capacity_respects_op(self):
        ftl = small_ftl(op_ratio=0.5)
        assert ftl.num_lbas == int(64 * 0.5)

    def test_reads_advance_victim_now(self):
        """Regression: only writes advanced ``_last_timestamp``, so during a
        read-heavy phase cost-benefit victim selection aged blocks against a
        stale "now".  Every host I/O must track the newest timestamp."""
        ftl = small_ftl()
        ftl.write(3, 1.0, payload=b"x")
        assert ftl._last_timestamp == 1.0
        ftl.read(3, timestamp=57.5)
        assert ftl._last_timestamp == 57.5
        ftl.trim(3, timestamp=60.25)
        assert ftl._last_timestamp == 60.25
        # Out-of-order stragglers never rewind the clock.
        with pytest.raises(UnmappedReadError):
            ftl.read(3, timestamp=10.0)
        assert ftl._last_timestamp == 60.25

    def test_rejected_read_span_leaves_clock(self):
        """Regression: ``read_span`` moved the GC aging clock before its
        range check, so a rejected read still aged every block."""
        ftl = small_ftl()
        ftl.write(3, 1.0)
        with pytest.raises(AddressError):
            ftl.read_span(ftl.num_lbas, 1, 500.0)
        with pytest.raises(AddressError):
            ftl.read_span(ftl.num_lbas - 1, 2, 500.0)
        assert ftl._last_timestamp == 1.0
        assert ftl.stats.host_reads == 0

    def test_rejected_trim_leaves_clock(self):
        """Regression: ``trim`` moved the GC aging clock before its range
        check."""
        ftl = small_ftl()
        ftl.write(3, 1.0)
        with pytest.raises(AddressError):
            ftl.trim(ftl.num_lbas, 900.0)
        assert ftl._last_timestamp == 1.0
        assert ftl.stats.host_trims == 0

    def test_invalid_op_ratio(self):
        nand = NandArray(NandGeometry.tiny())
        with pytest.raises(ConfigError):
            ConventionalFTL(nand, op_ratio=1.5)

    def test_stats_count_host_ops(self):
        ftl = small_ftl()
        ftl.write(0, 0.0)
        ftl.write(1, 0.0)
        ftl.read(0)
        ftl.trim(1, 0.0)
        assert ftl.stats.host_writes == 2
        assert ftl.stats.host_reads == 1
        assert ftl.stats.host_trims == 1


class TestGarbageCollection:
    def test_sustained_overwrites_survive(self):
        """Writing far more than physical capacity forces GC to reclaim."""
        ftl = small_ftl()
        for round_number in range(10):
            for lba in range(ftl.num_lbas):
                ftl.write(lba, float(round_number))
        assert ftl.stats.erases > 0
        # Every LBA still readable.
        for lba in range(ftl.num_lbas):
            ftl.read(lba)

    def test_gc_preserves_latest_data(self):
        ftl = small_ftl()
        for round_number in range(8):
            for lba in range(ftl.num_lbas):
                ftl.write(lba, 0.0, payload=str((lba, round_number)).encode())
        for lba in range(ftl.num_lbas):
            assert ftl.read(lba).payload == str((lba, 7)).encode()

    def test_write_amplification_at_least_one(self):
        ftl = small_ftl()
        for lba in range(ftl.num_lbas):
            ftl.write(lba, 0.0)
        assert ftl.stats.write_amplification >= 1.0

    def test_gc_copies_counted(self):
        ftl = small_ftl(op_ratio=0.4)
        # Fill, then rewrite a hot subset so victims hold live data.
        for lba in range(ftl.num_lbas):
            ftl.write(lba, 0.0)
        for _ in range(12):
            for lba in range(4):
                ftl.write(lba, 0.0)
        assert ftl.stats.gc_page_copies > 0
        assert ftl.stats.write_amplification > 1.0

    def test_insufficient_op_rejected_at_construction(self):
        """Logical space ~ physical space cannot be sustained by greedy GC,
        so it is rejected up front."""
        nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=4,
                                      pages_per_block=4))
        with pytest.raises(ConfigError):
            ConventionalFTL(nand, op_ratio=0.01,
                            gc_policy=GcPolicy(trigger_free_blocks=1,
                                               target_free_blocks=1))

    def test_mapping_invariant_after_gc(self):
        ftl = small_ftl()
        for round_number in range(6):
            for lba in range(ftl.num_lbas):
                ftl.write(lba, 0.0)
        # Every mapped PPA must be VALID and carry the right LBA.
        for lba, ppa in ftl.mapping.items():
            assert ftl.nand.page_state(ppa) is PageState.VALID
            assert ftl.nand.lbas[ppa] == lba

    def test_utilization(self):
        ftl = small_ftl()
        assert ftl.utilization() == 0.0
        ftl.write(0, 0.0)
        assert ftl.utilization() == pytest.approx(1 / ftl.num_lbas)
