"""Grown bad blocks: erase failures, retirement, data safety."""

import pytest

from repro.errors import EraseError, OutOfSpaceError
from repro.ftl.conventional import ConventionalFTL
from repro.ftl.insider import InsiderFTL
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry


def make_ftl(blocks=12, insider=False):
    nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=blocks,
                                  pages_per_block=8))
    cls = InsiderFTL if insider else ConventionalFTL
    return cls(nand, op_ratio=0.45)


def churn(ftl, rounds):
    for round_number in range(rounds):
        for lba in range(ftl.num_lbas):
            ftl.write(lba, float(round_number), b"r%d-%d" % (round_number, lba))


class TestBlockLevel:
    def test_injected_erase_failure_marks_bad(self):
        ftl = make_ftl()
        block = ftl.nand.block(0)
        for page in range(8):
            ftl.nand.program(0, lba=page, timestamp=0.0)
            ftl.nand.invalidate(page)
        block.fail_next_erase = True
        with pytest.raises(EraseError):
            ftl.nand.erase(0)
        assert block.is_bad

    def test_bad_block_rejects_further_erases(self):
        ftl = make_ftl()
        block = ftl.nand.block(0)
        block.is_bad = True
        with pytest.raises(EraseError):
            ftl.nand.erase(0)


class TestFtlRetirement:
    def test_gc_survives_erase_failure_without_data_loss(self):
        ftl = make_ftl()
        # Doom a handful of blocks, then churn hard enough that GC must
        # eventually try (and fail) to erase them.
        for block_index in range(3):
            ftl.nand.block(block_index).fail_next_erase = True
        churn(ftl, rounds=8)
        assert ftl.stats.bad_blocks >= 1
        assert ftl.allocator.retired_blocks == ftl.stats.bad_blocks
        for lba in range(ftl.num_lbas):
            assert ftl.read(lba).payload == b"r7-%d" % lba

    def test_retired_blocks_never_reselected(self):
        ftl = make_ftl()
        for block_index in range(3):
            ftl.nand.block(block_index).fail_next_erase = True
        churn(ftl, rounds=8)
        first_count = ftl.stats.bad_blocks
        churn(ftl, rounds=4)
        # The same dead blocks must not be "re-retired" in later rounds.
        assert ftl.stats.bad_blocks <= 3
        assert ftl.stats.bad_blocks >= first_count

    def test_insider_pins_survive_retirement(self):
        """Pinned old versions are relocated before the failing erase, so
        rollback still works after a block dies."""
        ftl = make_ftl(insider=True)
        for lba in range(ftl.num_lbas):
            ftl.write(lba, 0.0, b"orig%d" % lba)
        for block_index in range(ftl.nand.num_blocks):
            ftl.nand.block(block_index).fail_next_erase = False
        # Overwrite a hot set within the window while dooming one block.
        victim = ftl.nand.block(2)
        victim.fail_next_erase = True
        for round_number in range(4):
            for lba in range(6):
                ftl.write(lba, 1.0 + 0.1 * round_number, b"new")
        ftl.rollback(now=2.0)
        for lba, ppa in ftl.mapping.items():
            assert ftl.nand.lbas[ppa] == lba

    def test_capacity_shrinks_until_out_of_space(self):
        """Killing every erase eventually exhausts the device — with an
        explicit error, not corruption."""
        ftl = make_ftl(blocks=8)
        for block_index in range(8):
            ftl.nand.block(block_index).fail_next_erase = True
        with pytest.raises(OutOfSpaceError):
            churn(ftl, rounds=30)
        # Data that was written remains readable even then.
        readable = sum(
            1 for lba in range(ftl.num_lbas) if ftl.mapping.is_mapped(lba)
        )
        assert readable > 0
