"""CSV trace import/export."""

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
