"""IORequest header semantics."""

import copy
import dataclasses
import pickle
import tracemalloc

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


class TestSlimHeader:
    """The header is slot-backed and behaves as the frozen dataclass did."""

    def test_no_instance_dict(self):
        assert not hasattr(read(0.0, 1), "__dict__")

    def test_assignment_raises_frozen_instance_error(self):
        request = read(0.0, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.lba = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            del request.time

    def test_dataclasses_replace(self):
        request = write(1.5, 300, length=2, source="app")
        moved = dataclasses.replace(request, lba=7)
        assert (moved.time, moved.lba, moved.mode, moved.length, moved.source) == (
            1.5, 7, IOMode.WRITE, 2, "app")
        with pytest.raises(ValueError, match="LBA must be non-negative"):
            dataclasses.replace(request, lba=-1)

    def test_keyword_and_default_construction(self):
        request = IORequest(time=2.0, lba=3, mode=IOMode.READ)
        assert request.length == 1 and request.source is None
        assert IORequest(2.0, 3, IOMode.READ) == request

    def test_validation_messages(self):
        with pytest.raises(ValueError, match="finite and non-negative, got -1.0"):
            IORequest(-1.0, 0, IOMode.READ)
        with pytest.raises(ValueError, match="LBA must be non-negative, got -3"):
            IORequest(0.0, -3, IOMode.READ)
        with pytest.raises(ValueError, match="length must be >= 1, got 0"):
            IORequest(0.0, 0, IOMode.READ, 0)

    def test_equality_and_hash_ignore_source(self):
        a = read(1.0, 5, length=2, source="x")
        b = read(1.0, 5, length=2, source=None)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != read(1.0, 5, length=3)
        assert a != write(1.0, 5, length=2)
        assert a != (1.0, 5, IOMode.READ, 2)

    @pytest.mark.parametrize("clone", [
        lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
        copy.deepcopy,
        copy.copy,
    ])
    def test_copies_round_trip(self, clone):
        request = write(2.25, 1 << 40, length=4, source="wannacry")
        copied = clone(request)
        assert copied == request
        assert copied.source == "wannacry"
        assert repr(copied) == repr(request)

    def test_repr_unchanged(self):
        assert repr(read(1.5, 300, length=2)) == "IORequest(t=1.500, lba=300, R, len=2)"
        assert repr(write(0.0, 7, source="app")) == (
            "IORequest(t=0.000, lba=7, W, len=1, source='app')")

    def test_header_allocates_at_most_150_bytes(self):
        """10,000 headers with distinct float times and LBAs past the small-
        int cache: the header, its time and LBA objects and its list slot
        stay under 150 B (a per-instance ``__dict__`` costs ~171 B)."""
        count = 10_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            headers = [IORequest(0.5 + i, 1000 + i, IOMode.READ) for i in range(count)]
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(headers) == count
        assert used / count <= 150, f"{used / count:.1f} B per header"
