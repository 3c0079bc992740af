"""Background application generators: each reproduces its paper signature."""

import pytest

from repro.blockdev.trace import Trace
from repro.core.config import DetectorConfig
from repro.core.counting_table import CountingTable
from repro.errors import WorkloadError
from repro.workloads.apps import APP_REGISTRY, CATEGORIES
from repro.workloads.apps.iostress import IoStressApp
from repro.workloads.apps.wiping import DOD_PASSES, DataWipingApp
from repro.workloads.base import LbaRegion

REGION = LbaRegion(0, 40_000)


def trace_of(key: str, duration=20.0, seed=3) -> Trace:
    app = APP_REGISTRY[key].factory(REGION, duration=duration, seed=seed)
    return Trace(app.requests())


def overwrite_stats(trace: Trace, window=10):
    """(overwrite events, unique overwritten, total writes) via the real
    counting-table definition."""
    table = CountingTable()
    current = 0
    overwrites = 0
    unique = set()
    writes = 0
    for request in trace:
        target = int(request.time)
        while current < target:
            current += 1
            table.expire(current - window)
        for unit in request.split():
            if unit.is_read:
                table.record_read(unit.lba, current)
            else:
                writes += 1
                if table.record_write(unit.lba, current):
                    overwrites += 1
                    unique.add(unit.lba)
    return overwrites, len(unique), writes


class TestRegistry:
    def test_all_table1_apps_registered(self):
        for key in ("datawiping", "database", "cloudstorage", "iometer",
                    "diskmark", "hdtunepro", "compression", "videoencode",
                    "videodecode", "install", "websurfing", "outlooksync",
                    "p2pdown", "kakaotalk", "windowupdate"):
            assert key in APP_REGISTRY

    def test_categories_cover_paper_taxonomy(self):
        assert set(CATEGORIES) == {
            "heavy_overwrite", "io_intensive", "cpu_intensive", "normal",
        }

    def test_slowdowns_ordered_by_contention(self):
        """IO/CPU-intensive apps slow ransomware more than normal apps."""
        registry = APP_REGISTRY
        assert registry["iometer"].ransomware_slowdown > \
            registry["websurfing"].ransomware_slowdown
        assert registry["compression"].ransomware_slowdown > \
            registry["kakaotalk"].ransomware_slowdown

    def test_every_app_generates_ordered_bounded_trace(self):
        for key in APP_REGISTRY:
            trace = trace_of(key, duration=6.0)
            assert trace.end_time < 6.0
            # Every touched LBA stays inside the app's region.
            for request in trace:
                assert request.lba >= REGION.start
                assert request.end_lba <= REGION.end

    def test_every_app_deterministic(self):
        for key in APP_REGISTRY:
            a = [(r.time, r.lba) for r in trace_of(key, duration=4.0)]
            b = [(r.time, r.lba) for r in trace_of(key, duration=4.0)]
            assert a == b, key


class TestWipingSignature:
    def test_dod_multipass_duplicates(self):
        """The wiper's OWST signature: many overwrites, few unique blocks."""
        overwrites, unique, writes = overwrite_stats(trace_of("datawiping"))
        assert overwrites > 1000
        # Multi-pass duplication keeps unique blocks well below overwrite
        # events (pure DoD runs are ~1/7; quick-erase episodes dilute it).
        assert unique < overwrites * 0.6

    def test_seven_passes_constant(self):
        assert DOD_PASSES == 7

    def test_long_runs(self):
        app = DataWipingApp(REGION, duration=10.0, seed=1)
        trace = Trace(app.requests())
        writes = [r for r in trace if r.is_write]
        assert sum(r.length for r in writes) / len(writes) > 4


class TestBenignSignatures:
    def test_iostress_produces_few_overwrites(self):
        """Real stress tools barely ever write a recently-read block."""
        overwrites, _, writes = overwrite_stats(trace_of("iometer"))
        assert writes > 1000
        assert overwrites < writes * 0.05

    def test_videodecode_is_read_only(self):
        stats = trace_of("videodecode").stats()
        assert stats.num_writes == 0 and stats.num_reads > 50

    def test_p2p_writes_mostly_fresh(self):
        overwrites, _, writes = overwrite_stats(trace_of("p2pdown"))
        assert writes > 100
        assert overwrites < writes * 0.2

    def test_database_overwrites_hot_pages(self):
        overwrites, unique, writes = overwrite_stats(trace_of("database"))
        assert overwrites > 100
        # Hot-set repetition: unique far below total overwrites.
        assert unique < overwrites * 0.8

    def test_compression_reads_dominate(self):
        stats = trace_of("compression").stats()
        assert stats.blocks_read > stats.blocks_written

    def test_stress_tool_personalities_differ(self):
        iometer = trace_of("iometer", duration=8.0).stats()
        hdtune = trace_of("hdtunepro", duration=8.0).stats()
        # hdtunepro is read-heavier than iometer.
        assert hdtune.num_writes / hdtune.num_requests < \
            iometer.num_writes / iometer.num_requests

    def test_unknown_stress_tool_rejected(self):
        with pytest.raises(WorkloadError):
            IoStressApp(REGION, tool="bonnie")
