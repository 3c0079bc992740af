"""NAND array: chips behind flat PPAs, counters, latency accounting."""

import pytest

from repro.errors import AddressError, ConfigError
from repro.nand.array import NandArray
from repro.nand.block import PageState
from repro.nand.geometry import NandGeometry
from repro.nand.latency import NandLatencies


class TestLatencies:
    def test_defaults_match_paper_citations(self):
        lat = NandLatencies()
        assert lat.page_read == pytest.approx(50e-6)
        assert lat.page_program == pytest.approx(500e-6)

    def test_rejects_nonpositive(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            NandLatencies(page_read=0.0)


class TestArrayOperations:
    def test_program_returns_flat_ppa(self, tiny_nand):
        ppa = tiny_nand.program(global_block=0, lba=7, timestamp=1.0)
        assert ppa == 0
        assert tiny_nand.program(0, 8, 1.0) == 1

    def test_program_second_block(self, tiny_nand):
        ppa = tiny_nand.program(global_block=1, lba=7, timestamp=1.0)
        assert ppa == tiny_nand.geometry.pages_per_block

    def test_page_returns_oob(self, tiny_nand):
        ppa = tiny_nand.program(0, 42, 2.0, payload=b"data")
        tiny_nand.read(ppa)
        info = tiny_nand.page(ppa)
        assert info.lba == 42
        assert info.payload == b"data"
        # A snapshot is not a device read.
        assert tiny_nand.chip(0).counters.reads == 1

    def test_invalidate_and_state(self, tiny_nand):
        ppa = tiny_nand.program(0, 1, 0.0)
        assert tiny_nand.page_state(ppa) is PageState.VALID
        tiny_nand.invalidate(ppa)
        assert tiny_nand.page_state(ppa) is PageState.INVALID

    def test_erase_whole_block(self, tiny_nand):
        ppa = tiny_nand.program(0, 1, 0.0)
        tiny_nand.invalidate(ppa)
        tiny_nand.erase(0)
        assert tiny_nand.page_state(ppa) is PageState.FREE


class TestAccounting:
    def test_count_pages_by_state(self, tiny_nand):
        tiny_nand.program(0, 1, 0.0)
        ppa = tiny_nand.program(0, 2, 0.0)
        tiny_nand.invalidate(ppa)
        assert tiny_nand.states.count(PageState.VALID) == 1
        assert tiny_nand.states.count(PageState.INVALID) == 1
        assert (
            tiny_nand.states.count(PageState.FREE)
            == tiny_nand.geometry.pages_total - 2
        )

    def test_busy_time_accumulates(self, tiny_nand):
        before = tiny_nand.busy_time
        ppa = tiny_nand.program(0, 1, 0.0)
        tiny_nand.read(ppa)
        lat = tiny_nand.latencies
        assert tiny_nand.busy_time == pytest.approx(
            before + lat.page_program + lat.page_read
        )

    def test_total_counters(self, tiny_nand):
        ppa = tiny_nand.program(0, 1, 0.0)
        tiny_nand.invalidate(ppa)
        tiny_nand.erase(0)
        assert tiny_nand.total_programs() == 1
        assert tiny_nand.block(0).erase_count == 1

    def test_multichip_program(self):
        nand = NandArray(NandGeometry(channels=2, ways=1, blocks_per_chip=2,
                                      pages_per_block=4))
        # Block 2 lives on chip 1.
        ppa = nand.program(2, 5, 0.0)
        assert nand.geometry.decompose(ppa)[0] == 1


class TestAddressBounds:
    """Out-of-range indexes raise the argument's own error type instead of
    aliasing onto another block (negative indexes) or escaping as a bare
    ``IndexError``: a block index raises ``AddressError``, a flat PPA
    ``ConfigError`` (as ``NandGeometry.decompose`` does)."""

    @pytest.mark.parametrize("global_block", [-1, -8, 8, 100])
    def test_block_index_out_of_range(self, tiny_nand, global_block):
        with pytest.raises(AddressError):
            tiny_nand.block(global_block)
        with pytest.raises(AddressError):
            tiny_nand.program(global_block, 5, 1.0)
        with pytest.raises(AddressError):
            tiny_nand.program_many(global_block, [5], [1.0], [None])
        with pytest.raises(AddressError):
            tiny_nand.erase(global_block)
        # Nothing was programmed or erased anywhere.
        assert tiny_nand.total_programs() == 0
        assert sum(tiny_nand.erase_counts()) == 0
        assert tiny_nand.states.count(PageState.FREE) == (
            tiny_nand.geometry.pages_total)

    @pytest.mark.parametrize("ppa", [-1, -32, 256, 10_000])
    def test_ppa_out_of_range(self, tiny_nand, ppa):
        last = tiny_nand.num_blocks - 1
        for _ in range(tiny_nand.geometry.pages_per_block):
            tiny_nand.program(last, 5, 1.0)
        operations = (tiny_nand.read, tiny_nand.page, tiny_nand.page_state,
                      tiny_nand.invalidate, tiny_nand.revalidate,
                      lambda p: tiny_nand.invalidate_many([p]))
        for operation in operations:
            with pytest.raises(ConfigError):
                operation(ppa)
        # The last block, where a negative PPA used to land, is untouched.
        assert tiny_nand.block(last).valid_count == (
            tiny_nand.geometry.pages_per_block)
        assert all(tiny_nand.chip(chip).counters.reads == 0
                   for chip in range(tiny_nand.geometry.num_chips))
