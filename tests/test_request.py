"""IORequest header semantics."""

import pytest

from repro.blockdev.request import IOMode, IORequest, read, write


class TestConstruction:
    def test_read_helper(self):
        request = read(1.0, 5, length=2)
        assert request.is_read and not request.is_write
        assert request.mode is IOMode.READ

    def test_write_helper(self):
        request = write(1.0, 5)
        assert request.is_write and not request.is_read

    def test_source_label(self):
        assert read(0.0, 0, source="wannacry").source == "wannacry"

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            IORequest(time=-1.0, lba=0, mode=IOMode.READ)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_rejects_non_finite_time(self, time):
        with pytest.raises(ValueError):
            IORequest(time=time, lba=0, mode=IOMode.READ)

    def test_rejects_negative_lba(self):
        with pytest.raises(ValueError):
            IORequest(time=0.0, lba=-1, mode=IOMode.READ)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            IORequest(time=0.0, lba=0, mode=IOMode.READ, length=0)

    def test_source_not_part_of_equality(self):
        a = read(1.0, 5, source="x")
        b = read(1.0, 5, source="y")
        assert a == b


class TestGeometryOfRequest:
    def test_end_lba(self):
        assert read(0.0, 10, length=4).end_lba == 14

    def test_lbas_enumerates_blocks(self):
        assert list(read(0.0, 10, length=3).lbas()) == [10, 11, 12]

    def test_split_unit_length(self):
        request = read(0.0, 10)
        assert list(request.split()) == [request]

    def test_split_multi_block(self):
        parts = list(write(2.0, 10, length=3).split())
        assert [p.lba for p in parts] == [10, 11, 12]
        assert all(p.length == 1 for p in parts)
        assert all(p.time == 2.0 for p in parts)

    def test_split_preserves_source(self):
        parts = list(write(0.0, 0, length=2, source="app").split())
        assert all(p.source == "app" for p in parts)

    def test_repr_contains_mode(self):
        assert "R" in repr(read(0.0, 1))
        assert "W" in repr(write(0.0, 1))
