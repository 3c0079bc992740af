"""Trace container: ordering, stats, filtering, persistence."""

import random

import pytest

from repro.blockdev.request import IOMode, IORequest, read, write
from repro.blockdev.trace import Trace
from repro.core.detector import RansomwareDetector
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

    def test_constructor_rejects_time_regression(self):
        with pytest.raises(TraceError, match=r"out-of-order append: 0.5 < 1.0"):
            Trace([read(0.0, 0), read(1.0, 1), read(0.5, 2)])

    def test_extend_keeps_the_prefix_before_a_regression(self):
        """A batch fails as a run of appends would: the requests before
        the first regression are kept."""
        trace = Trace([read(1.0, 0)])
        with pytest.raises(TraceError, match=r"out-of-order append: 2.0 < 3.0"):
            trace.extend([read(2.0, 1), read(3.0, 2), read(2.0, 3), read(4.0, 4)])
        assert [r.lba for r in trace] == [0, 1, 2]
        with pytest.raises(TraceError, match=r"out-of-order append: 0.5 < 3.0"):
            trace.extend(iter([read(0.5, 5)]))
        assert len(trace) == 3
        trace.extend([])
        trace.extend(r for r in [read(3.0, 6), read(3.0, 7)])
        assert [r.lba for r in trace] == [0, 1, 2, 6, 7]

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


def replay(trace, tree):
    # No history: a mutated timestamp may open an hours-long gap.
    detector = RansomwareDetector(tree=tree, keep_history=False)
    for request in trace:
        detector.observe(request)


class TestMalformedInput:
    """Bad lines raise TraceError, never a bare Python error."""

    def load(self, tmp_path, content: bytes):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(content)
        return Trace.load(path)

    def test_invalid_utf8(self, tmp_path):
        with pytest.raises(TraceError, match=":2:"):
            self.load(tmp_path, b'{"t": 0.0, "lba": 1, "mode": "R", "len": 1}\n'
                                b'{"t": 1.0, "lba": 1, "mode": "R", "len": 1, '
                                b'"src": "\xff"}\n')

    def test_deep_nesting(self, tmp_path):
        with pytest.raises(TraceError):
            self.load(tmp_path, b"[" * 100_000 + b"]" * 100_000 + b"\n")

    @pytest.mark.parametrize("field, value", [
        ("lba", "1.5"), ("len", "2.5"), ("lba", "true"), ("len", "true"),
        ("t", "false"), ("t", '"0.5"'), ("src", "7"), ("src", "[1]"),
    ])
    def test_mistyped_field(self, tmp_path, field, value):
        record = {"t": "0.5", "lba": "1", "mode": '"W"', "len": "1"}
        record[field] = value
        line = "{" + ", ".join(f'"{k}": {v}' for k, v in record.items()) + "}"
        with pytest.raises(TraceError, match=repr(field)):
            self.load(tmp_path, line.encode() + b"\n")

    @pytest.mark.parametrize("line", [b"[1, 2]", b"7", b"null", b'"text"'])
    def test_record_not_an_object(self, tmp_path, line):
        with pytest.raises(TraceError):
            self.load(tmp_path, line + b"\n")

    def test_seeded_mutation_fuzz(self, tmp_path, pretrained_tree):
        """Mutants of a saved trace load and replay, or raise TraceError."""
        rng = random.Random(20_221)
        path = tmp_path / "seed.jsonl"
        Trace([read(0.0, 0, length=2, source="d\u00e9mo"),
               write(0.5, 0, length=2), read(1.25, 10, source="b"),
               write(2.0, 50, length=4)]).save(path)
        original = path.read_bytes()
        for _ in range(1500):
            mutant = bytearray(original)
            for _ in range(rng.randrange(1, 4)):
                at = rng.randrange(len(mutant))
                op = rng.randrange(3)
                if op == 0:
                    mutant[at] = rng.randrange(256)
                elif op == 1:
                    mutant.insert(at, rng.randrange(256))
                else:
                    del mutant[at]
            try:
                trace = self.load(tmp_path, bytes(mutant))
            except TraceError:
                continue
            replay(trace, pretrained_tree)
