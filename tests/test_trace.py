"""Trace container: ordering, stats, filtering, persistence."""

import pytest

from repro.blockdev.request import IOMode, IORequest, read, write
from repro.blockdev.trace import Trace
from repro.errors import TraceError


def make_trace() -> Trace:
    return Trace(
        [
            read(0.0, 0, length=2, source="a"),
            write(0.5, 0, length=2, source="a"),
            read(1.0, 10, source="b"),
            write(2.0, 50, length=4, source="b"),
        ]
    )


class TestOrdering:
    def test_append_in_order(self):
        trace = Trace()
        trace.append(read(0.0, 0))
        trace.append(read(1.0, 1))
        assert len(trace) == 2

    def test_append_equal_time_ok(self):
        trace = Trace([read(1.0, 0)])
        trace.append(read(1.0, 1))
        assert len(trace) == 2

    def test_rejects_time_regression(self):
        trace = Trace([read(1.0, 0)])
        with pytest.raises(TraceError):
            trace.append(read(0.5, 1))

    def test_indexing(self):
        trace = make_trace()
        assert trace[2].lba == 10


class TestStats:
    def test_counts(self):
        stats = make_trace().stats()
        assert stats.num_requests == 4
        assert stats.num_reads == 2
        assert stats.num_writes == 2

    def test_block_counts(self):
        stats = make_trace().stats()
        assert stats.blocks_read == 3
        assert stats.blocks_written == 6

    def test_unique_lbas(self):
        # 0,1 (twice), 10, 50..53 -> 7 unique
        assert make_trace().stats().unique_lbas == 7

    def test_duration(self):
        assert make_trace().duration == pytest.approx(2.0)

    def test_empty_trace(self):
        stats = Trace().stats()
        assert stats.num_requests == 0
        assert stats.write_fraction == 0.0

    def test_write_fraction(self):
        assert make_trace().stats().write_fraction == pytest.approx(0.5)


class TestFiltering:
    def test_sources(self):
        assert make_trace().sources() == {"a": 2, "b": 2}

    def test_filter_source(self):
        filtered = make_trace().filter_source("a")
        assert len(filtered) == 2
        assert all(r.source == "a" for r in filtered)

    def test_slice_time_half_open(self):
        sliced = make_trace().slice_time(0.5, 2.0)
        assert [r.time for r in sliced] == [0.5, 1.0]


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = Trace.load(path)
        assert len(loaded) == len(trace)
        assert [r.lba for r in loaded] == [r.lba for r in trace]
        assert [r.source for r in loaded] == [r.source for r in trace]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 0, "lba": "noise"}\n')
        with pytest.raises(TraceError):
            Trace.load(path)

    @pytest.mark.parametrize("stamp", ["NaN", "Infinity"])
    def test_load_rejects_non_finite_time(self, tmp_path, stamp):
        path = tmp_path / "bad.jsonl"
        path.write_text(f'{{"t": {stamp}, "lba": 1, "mode": "R", "len": 1}}\n')
        with pytest.raises(TraceError):
            Trace.load(path)

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t": 0.0, "lba": 1, "mode": "R", "len": 1}\n\n')
        assert len(Trace.load(path)) == 1
