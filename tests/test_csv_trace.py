"""CSV trace import/export."""

import csv
import random

import pytest

from repro.blockdev.csvtrace import load_csv_trace, save_csv_trace
from repro.blockdev.request import read, write
from repro.blockdev.trace import Trace
from repro.errors import TraceError


@pytest.fixture
def sample_trace() -> Trace:
    return Trace([
        read(0.0, 10, length=2, source="app"),
        write(0.5, 10, length=2, source="app"),
        read(1.0, 99),
    ])


class TestRoundtrip:
    def test_save_load(self, sample_trace, tmp_path):
        path = tmp_path / "t.csv"
        save_csv_trace(sample_trace, path)
        loaded = load_csv_trace(path, source_column="source")
        assert len(loaded) == 3
        assert [r.lba for r in loaded] == [10, 10, 99]
        assert loaded[0].source == "app"
        assert loaded[2].source is None
        assert loaded[1].is_write

    def test_detector_accepts_imported_trace(self, sample_trace, tmp_path,
                                             pretrained_tree):
        from repro.core.detector import RansomwareDetector

        path = tmp_path / "t.csv"
        save_csv_trace(sample_trace, path)
        detector = RansomwareDetector(tree=pretrained_tree)
        for request in load_csv_trace(path):
            detector.observe(request)


class TestImportFlexibility:
    def test_custom_columns_and_scale(self, tmp_path):
        path = tmp_path / "blk.csv"
        path.write_text(
            "ts_ns,sector,op\n"
            "1000000000,8,READ\n"
            "2000000000,8,write\n"
        )
        trace = load_csv_trace(path, time_column="ts_ns",
                               lba_column="sector", mode_column="op",
                               length_column=None, time_scale=1e-9)
        assert trace[0].time == pytest.approx(1.0)
        assert trace[0].length == 1
        assert trace[1].is_write

    def test_numeric_mode_aliases(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,lba,mode\n0.0,1,0\n0.1,2,1\n")
        trace = load_csv_trace(path)
        assert trace[0].is_read and trace[1].is_write

    def test_out_of_order_rows_sorted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,lba,mode\n2.0,1,r\n1.0,2,r\n")
        trace = load_csv_trace(path)
        assert [r.time for r in trace] == [1.0, 2.0]

    def test_unsorted_without_sort_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,lba,mode\n2.0,1,r\n1.0,2,r\n")
        with pytest.raises(TraceError):
            load_csv_trace(path, sort=False)


class TestValidation:
    def test_missing_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("when,addr\n1,2\n")
        with pytest.raises(TraceError):
            load_csv_trace(path)

    def test_bad_mode(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,lba,mode\n0.0,1,erase\n")
        with pytest.raises(TraceError):
            load_csv_trace(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,lba,mode\nzero,1,r\n")
        with pytest.raises(TraceError):
            load_csv_trace(path)

    @pytest.mark.parametrize("stamp", ["nan", "inf"])
    def test_non_finite_time(self, tmp_path, stamp):
        path = tmp_path / "t.csv"
        path.write_text(f"time,lba,mode\n{stamp},1,r\n")
        with pytest.raises(TraceError):
            load_csv_trace(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,lba,mode\n0.5,2,w\n1.0,5\n")
        with pytest.raises(TraceError, match=":3:"):
            load_csv_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(TraceError):
            load_csv_trace(path)


class TestMalformedInput:
    """Bad bytes raise TraceError, never a bare Python error."""

    def load(self, tmp_path, content: bytes):
        path = tmp_path / "t.csv"
        path.write_bytes(content)
        return load_csv_trace(path, source_column="source")

    def test_invalid_utf8_row(self, tmp_path):
        with pytest.raises(TraceError):
            self.load(tmp_path, b"time,lba,mode,source\n0.5,1,w,\xff\n")

    def test_invalid_utf8_header(self, tmp_path):
        with pytest.raises(TraceError):
            self.load(tmp_path, b"ti\xfeme,lba,mode\n0.5,1,w\n")

    def test_oversize_field(self, tmp_path):
        field = b"1" * (csv.field_size_limit() + 1)
        with pytest.raises(TraceError):
            self.load(tmp_path, b"time,lba,mode\n0.5," + field + b",w\n")

    @pytest.mark.parametrize("lba, length", [("1.5", "1"), ("1", "2.5"),
                                             ("true", "1"), ("1", "true")])
    def test_non_integer_block_fields(self, tmp_path, lba, length):
        with pytest.raises(TraceError):
            self.load(tmp_path,
                      f"time,lba,mode,length\n0.5,{lba},w,{length}\n".encode())

    def test_seeded_mutation_fuzz(self, tmp_path, sample_trace, pretrained_tree):
        """Mutants of a saved trace load and replay, or raise TraceError."""
        from repro.core.detector import RansomwareDetector

        rng = random.Random(20_222)
        path = tmp_path / "seed.csv"
        save_csv_trace(sample_trace, path)
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
            # No history: a mutated timestamp may open an hours-long gap.
            detector = RansomwareDetector(tree=pretrained_tree,
                                          keep_history=False)
            for request in trace:
                detector.observe(request)
