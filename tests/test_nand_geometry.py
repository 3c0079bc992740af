"""NAND geometry and flat-PPA addressing."""

import pytest

from repro.errors import ConfigError
from repro.nand.geometry import NandGeometry


class TestDimensions:
    def test_tiny_counts(self):
        g = NandGeometry.tiny()
        assert g.num_chips == 1
        assert g.blocks_total == 8
        assert g.pages_total == 256

    def test_small_counts(self):
        g = NandGeometry.small()
        assert g.num_chips == 4
        assert g.pages_total == 4 * 64 * 64

    def test_capacity_bytes(self):
        g = NandGeometry.tiny()
        assert g.capacity_bytes == 256 * 4096

    def test_paper_prototype_is_512_gib_class(self):
        g = NandGeometry.paper_prototype()
        assert g.num_chips == 64
        assert g.capacity_bytes == 512 * 1024**3

    def test_rejects_zero_dimension(self):
        with pytest.raises(ConfigError):
            NandGeometry(channels=0)


class TestPpaAddressing:
    def test_roundtrip_all_pages_tiny(self):
        g = NandGeometry.tiny()
        for ppa in range(g.pages_total):
            chip, block, page = g.decompose(ppa)
            assert g.ppa(chip, block, page) == ppa

    def test_first_ppa(self):
        g = NandGeometry.small()
        assert g.ppa(0, 0, 0) == 0

    def test_ppa_block_stride(self):
        g = NandGeometry.small()
        assert g.ppa(0, 1, 0) == g.pages_per_block

    def test_ppa_chip_stride(self):
        g = NandGeometry.small()
        assert g.ppa(1, 0, 0) == g.pages_per_chip

    def test_block_of(self):
        g = NandGeometry.tiny()
        assert g.block_of(0) == 0
        assert g.block_of(g.pages_per_block) == 1

    def test_out_of_range_ppa(self):
        g = NandGeometry.tiny()
        with pytest.raises(ConfigError):
            g.decompose(g.pages_total)

    def test_out_of_range_components(self):
        g = NandGeometry.tiny()
        with pytest.raises(ConfigError):
            g.ppa(1, 0, 0)
        with pytest.raises(ConfigError):
            g.ppa(0, 8, 0)
        with pytest.raises(ConfigError):
            g.ppa(0, 0, 32)
