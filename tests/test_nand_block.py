"""Erase-block rules on the flat page store: sequential program, invalidate,
burn, revalidate, erase."""

import gc

import pytest

from repro.errors import (
    ConfigError,
    EraseError,
    ProgramError,
    ProgramFailError,
    ReadError,
)
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultInjector
from repro.nand.array import NandArray
from repro.nand.block import Block, PageState
from repro.nand.geometry import NandGeometry

#: Two blocks of four pages; the rules are checked on block 0 (PPAs 0-3).
GEOMETRY = NandGeometry(channels=1, ways=1, blocks_per_chip=2,
                        pages_per_block=4)


@pytest.fixture
def nand() -> NandArray:
    return NandArray(GEOMETRY)


class TestProgram:
    def test_sequential_pages(self, nand):
        assert nand.program(0, lba=10, timestamp=1.0) == 0
        assert nand.program(0, lba=11, timestamp=1.1) == 1
        assert nand.block(0).write_pointer == 2

    def test_program_records_oob(self, nand):
        nand.program(0, lba=10, timestamp=1.0, payload=b"x")
        page = nand.page(0)
        assert page.lba == 10
        assert page.written_at == 1.0
        assert page.payload == b"x"
        assert (nand.lbas[0], nand.written_at[0], nand.payloads[0]) == (
            10, 1.0, b"x")

    def test_full_block_rejects_program(self, nand):
        for i in range(4):
            nand.program(0, i, 0.0)
        assert nand.block(0).is_full
        with pytest.raises(ProgramError):
            nand.program(0, 99, 0.0)

    def test_run_longer_than_free_pages_rejected_whole(self, nand):
        nand.program(0, 0, 0.0)
        with pytest.raises(ProgramError):
            nand.program_many(0, [1, 2, 3, 4], [0.0] * 4, [None] * 4)
        assert nand.block(0).write_pointer == 1
        assert nand.page_state(1) is PageState.FREE

    def test_program_many_stores_parallel_sequences(self, nand):
        ppas = nand.program_many(0, range(5, 8), [1.0, 2.0, 3.0],
                                 [b"a", None, b"c"])
        assert list(ppas) == [0, 1, 2]
        assert [tuple(nand.page(p)) for p in ppas] == [
            (PageState.VALID, 5, 1.0, b"a"),
            (PageState.VALID, 6, 2.0, None),
            (PageState.VALID, 7, 3.0, b"c"),
        ]

    def test_valid_count_tracks_programs(self, nand):
        nand.program(0, 0, 0.0)
        nand.program(0, 1, 0.0)
        assert nand.block(0).valid_count == 2

    def test_free_pages(self, nand):
        nand.program(0, 0, 0.0)
        assert nand.block(0).free_pages == 3


class TestReadRules:
    def test_read_unprogrammed_rejected(self, nand):
        with pytest.raises(ReadError):
            nand.read(0)

    def test_read_out_of_range(self, nand):
        with pytest.raises(ConfigError):
            nand.read(GEOMETRY.pages_total)

    def test_read_invalid_page_still_works(self, nand):
        # Old versions must stay readable: recovery depends on it.
        nand.program(0, 7, 0.0, payload=b"old")
        nand.invalidate(0)
        nand.read(0)
        assert nand.chip(0).counters.reads == 1
        assert nand.page(0).payload == b"old"


class TestInvalidate:
    def test_invalidate_decrements_valid(self, nand):
        nand.program(0, 0, 0.0)
        nand.invalidate(0)
        assert nand.block(0).valid_count == 0
        assert nand.block(0).invalid_count == 1

    def test_double_invalidate_rejected(self, nand):
        nand.program(0, 0, 0.0)
        nand.invalidate(0)
        with pytest.raises(ProgramError):
            nand.invalidate(0)
        assert nand.block(0).valid_count == 0

    def test_invalidate_free_page_rejected(self, nand):
        with pytest.raises(ProgramError):
            nand.invalidate(0)


class TestBurn:
    def test_failed_program_burns_its_page(self):
        nand = NandArray(GEOMETRY, faults=FaultInjector(
            FaultConfig(program_fail_rate=1.0)))
        with pytest.raises(ProgramFailError) as excinfo:
            nand.program_many(0, [3, 4], [1.0, 1.0], [b"a", b"b"])
        assert excinfo.value.ppa == 0 and excinfo.value.landed == 0
        # Consumed (the write pointer stays past it) but holding nothing.
        assert nand.block(0).write_pointer == 1
        assert nand.block(0).valid_count == 0
        assert tuple(nand.page(0)) == (PageState.INVALID, None, 0.0, None)
        assert nand.page_state(1) is PageState.FREE

    def test_burned_page_cannot_be_invalidated(self):
        nand = NandArray(GEOMETRY, faults=FaultInjector(
            FaultConfig(program_fail_rate=1.0)))
        with pytest.raises(ProgramFailError):
            nand.program(0, 3, 1.0)
        with pytest.raises(ProgramError):
            nand.invalidate(0)


class TestRevalidate:
    def test_revalidate_restores_invalid_page(self, nand):
        nand.program(0, 0, 0.0)
        nand.invalidate(0)
        nand.revalidate(0)
        assert nand.page_state(0) is PageState.VALID
        assert nand.block(0).valid_count == 1

    def test_revalidate_valid_page_is_a_no_op(self, nand):
        nand.program(0, 0, 0.0)
        nand.revalidate(0)
        assert nand.block(0).valid_count == 1

    def test_revalidate_erased_page_rejected(self, nand):
        with pytest.raises(ProgramError):
            nand.revalidate(0)


class TestErase:
    def test_erase_requires_no_valid_pages(self, nand):
        nand.program(0, 0, 0.0)
        with pytest.raises(EraseError):
            nand.erase(0)
        assert nand.page_state(0) is PageState.VALID

    def test_erase_resets_block(self, nand):
        nand.program(0, 0, 0.0, payload=b"x")
        nand.invalidate(0)
        nand.erase(0)
        assert nand.block(0).write_pointer == 0
        assert nand.block(0).erase_count == 1
        assert tuple(nand.page(0)) == (PageState.FREE, None, 0.0, None)

    def test_erase_leaves_other_blocks_alone(self, nand):
        nand.program(0, 0, 0.0)
        nand.invalidate(0)
        nand.program(1, 9, 2.0, payload=b"y")
        nand.erase(0)
        assert tuple(nand.page(4)) == (PageState.VALID, 9, 2.0, b"y")

    def test_erase_allows_reprogram(self, nand):
        nand.program(0, 0, 0.0)
        nand.invalidate(0)
        nand.erase(0)
        assert nand.program(0, 5, 1.0) == 0

    def test_erase_count_accumulates(self, nand):
        for _ in range(3):
            nand.program(0, 0, 0.0)
            nand.invalidate(0)
            nand.erase(0)
        assert nand.block(0).erase_count == 3


class TestFlatPageStore:
    def test_block_holds_counters_only(self):
        block = Block(4)
        assert not hasattr(block, "pages")
        assert not hasattr(block, "__dict__")

    def test_array_build_allocates_no_object_per_page(self):
        geometry = NandGeometry.small()
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            nand = NandArray(geometry)
            created = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert nand.num_blocks == geometry.blocks_total
        assert created < geometry.pages_total // 8
