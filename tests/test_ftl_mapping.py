"""Mapping table semantics — both backends through the same contract."""

import pytest

from repro.errors import AddressError
from repro.ftl.mapping import (
    MAPPING_BACKENDS,
    DictMappingTable,
    MappingTable,
    create_mapping_table,
)


@pytest.fixture(params=sorted(MAPPING_BACKENDS))
def table(request):
    return create_mapping_table(request.param, num_lbas=16)


class TestMappingTable:
    def test_unmapped_lookup_is_none(self, table):
        assert table.lookup(3) is None
        assert not table.is_mapped(3)

    def test_update_and_lookup(self, table):
        assert table.update(3, 100) is None
        assert table.lookup(3) == 100
        assert table.is_mapped(3)

    def test_update_returns_previous(self, table):
        table.update(3, 100)
        assert table.update(3, 200) == 100
        assert table.lookup(3) == 200

    def test_unmap(self, table):
        table.update(3, 100)
        assert table.unmap(3) == 100
        assert table.lookup(3) is None

    def test_unmap_missing_returns_none(self, table):
        assert table.unmap(3) is None

    def test_mapped_count(self, table):
        table.update(1, 10)
        table.update(2, 20)
        table.unmap(1)
        assert table.mapped_count() == 1
        assert len(table) == 1

    def test_items(self, table):
        table.update(1, 10)
        assert dict(table.items()) == {1: 10}

    def test_out_of_range_lba(self, table):
        with pytest.raises(AddressError):
            table.lookup(16)
        with pytest.raises(AddressError):
            table.update(-1, 0)

    def test_rejects_negative_ppa(self, table):
        with pytest.raises(AddressError):
            table.update(3, -1)

    def test_rejects_empty_space(self):
        with pytest.raises(AddressError):
            MappingTable(0)
        with pytest.raises(AddressError):
            DictMappingTable(0)


class TestReverseMap:
    @pytest.fixture(params=sorted(MAPPING_BACKENDS))
    def reversed_table(self, request):
        return create_mapping_table(request.param, num_lbas=16, num_ppas=64)

    def test_lba_of_tracks_updates(self, reversed_table):
        reversed_table.update(3, 40)
        assert reversed_table.lba_of(40) == 3
        reversed_table.update(3, 41)       # relocation: old PPA released
        assert reversed_table.lba_of(40) is None
        assert reversed_table.lba_of(41) == 3

    def test_lba_of_tracks_unmap(self, reversed_table):
        reversed_table.update(3, 40)
        reversed_table.unmap(3)
        assert reversed_table.lba_of(40) is None

    def test_lba_of_unknown_ppa(self, reversed_table):
        assert reversed_table.lba_of(63) is None
        assert reversed_table.lba_of(10_000) is None

    def test_lba_of_without_reverse_map_scans(self):
        table = MappingTable(num_lbas=16)  # no num_ppas: linear fallback
        table.update(5, 40)
        assert table.lba_of(40) == 5
        assert table.lba_of(41) is None


class TestFactory:
    def test_backend_names_stamped(self):
        assert create_mapping_table("flat", 8).backend == "flat"
        assert create_mapping_table("dict", 8).backend == "dict"

    def test_unknown_backend_rejected(self):
        with pytest.raises(AddressError, match="unknown mapping backend"):
            create_mapping_table("btree", 8)
