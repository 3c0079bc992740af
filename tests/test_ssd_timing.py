"""Analytic latency model (the Fig. 8 substrate)."""

import pytest

from repro.blockdev.request import read, write
from repro.blockdev.trace import Trace
from repro.ssd.timing import FirmwareCosts, LatencyModel, TraceProfile, profile_trace


def profile(read_hit=0.5, overwrite=0.5) -> TraceProfile:
    return TraceProfile(reads=100, writes=100, read_hit_rate=read_hit,
                        overwrite_rate=overwrite)


class TestLatencyModel:
    def test_baseline_matches_paper(self):
        model = LatencyModel()
        assert model.ftl_read_ns() == 477.0
        assert model.ftl_write_ns() == 1372.0

    def test_insider_overhead_in_paper_range(self):
        model = LatencyModel()
        p = profile(read_hit=0.4, overwrite=0.5)
        assert 100 <= model.insider_read_ns(p) <= 250
        assert 150 <= model.insider_write_ns(p) <= 400

    def test_overhead_grows_with_overwrite_rate(self):
        model = LatencyModel()
        assert model.insider_write_ns(profile(overwrite=0.9)) > \
            model.insider_write_ns(profile(overwrite=0.1))

    def test_nand_dominates_end_to_end(self):
        """The paper's conclusion: the insider's share is < 1 % of I/O."""
        model = LatencyModel()
        p = profile()
        assert model.insider_read_share(p) < 0.01
        assert model.insider_write_share(p) < 0.01

    def test_full_latency_includes_nand(self):
        model = LatencyModel()
        p = profile()
        assert model.read_latency_s(p) > model.nand.page_read
        assert model.write_latency_s(p) > model.nand.page_program

    def test_custom_costs(self):
        model = LatencyModel(costs=FirmwareCosts(ftl_read_ns=100.0))
        assert model.ftl_read_ns() == 100.0


class TestProfileTrace:
    def test_ransomware_like_trace_has_high_overwrite_rate(self):
        requests = []
        now = 0.0
        for lba in range(0, 400, 8):
            requests.append(read(now, lba, length=8))
            requests.append(write(now + 0.001, lba, length=8))
            now += 0.01
        p = profile_trace(Trace(requests))
        assert p.overwrite_rate > 0.95

    def test_sequential_write_trace_has_no_overwrites(self):
        requests = [write(i * 0.001, i) for i in range(200)]
        p = profile_trace(Trace(requests))
        assert p.overwrite_rate == 0.0
        assert p.writes == 200

    def test_stale_reads_do_not_count(self):
        requests = [read(0.0, 1), write(30.0, 1)]
        p = profile_trace(Trace(requests))
        assert p.overwrite_rate == 0.0

    def test_read_spanning_a_stale_and_a_live_entry(self):
        # By t=11 the window has expired LBA 10's entry (slice 0) but not
        # LBA 12's (slice 8): of the three blocks read, only LBA 12 hits.
        requests = [read(0.0, 10), read(8.0, 12), read(11.0, 10, length=3)]
        p = profile_trace(Trace(requests))
        assert p.reads == 5
        assert p.read_hit_rate == pytest.approx(1 / 5)

    def test_read_hit_rate(self):
        requests = [read(0.0, 1), read(0.1, 1), read(0.2, 2)]
        p = profile_trace(Trace(requests))
        assert p.read_hit_rate == pytest.approx(1 / 3)

    def test_empty_trace(self):
        p = profile_trace(Trace())
        assert p.reads == 0 and p.writes == 0
        assert p.read_hit_rate == 0.0 and p.overwrite_rate == 0.0
