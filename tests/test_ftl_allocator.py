"""Block allocator: free pool, active blocks, chip interleaving."""

import pytest

from repro.errors import OutOfSpaceError
from repro.ftl.allocator import BlockAllocator
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry


@pytest.fixture
def nand() -> NandArray:
    return NandArray(NandGeometry(channels=2, ways=1, blocks_per_chip=4,
                                  pages_per_block=4))


@pytest.fixture
def allocator(nand) -> BlockAllocator:
    return BlockAllocator(nand)


class TestAllocation:
    def test_all_blocks_start_free(self, allocator, nand):
        assert allocator.free_blocks == nand.num_blocks

    def test_host_block_opens_one(self, allocator, nand):
        block = allocator.host_block()
        assert allocator.host_block() == block
        assert allocator.free_blocks == nand.num_blocks - 1
        assert allocator.is_active(block)

    def test_host_block_stable_until_full(self, allocator, nand):
        block = allocator.host_block()
        for lba in range(nand.geometry.pages_per_block):
            assert allocator.host_block() == block
            nand.program(block, lba, 0.0)
        assert allocator.host_block() != block

    def test_gc_block_separate_from_host(self, allocator):
        assert allocator.host_block() != allocator.gc_block()

    def test_interleaves_chips(self, allocator, nand):
        first = allocator.host_block()
        second = allocator.gc_block()
        # Consecutive allocations land on different chips.
        chips = nand.geometry.blocks_per_chip
        assert first // chips != second // chips

    def test_exhaustion_raises(self, allocator, nand):
        for _ in range(nand.num_blocks):
            allocator._take_free()
        with pytest.raises(OutOfSpaceError):
            allocator._take_free()


class TestRelease:
    def test_release_returns_to_pool(self, allocator, nand):
        block = allocator.host_block()
        # Simulate the block being erased, then released.
        allocator.release(block)
        assert allocator.free_blocks == nand.num_blocks
        assert allocator.is_free(block)

    def test_release_clears_active_role(self, allocator):
        block = allocator.host_block()
        allocator.release(block)
        assert not allocator.is_active(block)

    def test_double_release_is_idempotent(self, allocator, nand):
        block = allocator.host_block()
        allocator.release(block)
        allocator.release(block)
        assert allocator.free_blocks == nand.num_blocks
