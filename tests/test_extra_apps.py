"""Defrag and anti-virus: the extra §III-A workloads must stay benign."""

import pytest

from repro.blockdev.trace import Trace
from repro.train.evaluate import evaluate_run
from repro.workloads.apps import APP_REGISTRY
from repro.workloads.base import LbaRegion
from repro.workloads.scenario import Scenario

REGION = LbaRegion(0, 50_000)


class TestDefrag:
    def test_registered_as_heavy_overwrite(self):
        assert APP_REGISTRY["defrag"].category == "heavy_overwrite"

    def test_long_run_requests(self):
        trace = Trace(APP_REGISTRY["defrag"].factory(
            REGION, duration=15.0, seed=1).requests())
        writes = [r for r in trace if r.is_write]
        assert writes
        assert sum(r.length for r in writes) / len(writes) >= 8

    def test_overwrites_previously_read_blocks(self):
        """The compaction target was read earlier in the pass — genuine
        overwrites by the detector's definition."""
        trace = Trace(APP_REGISTRY["defrag"].factory(
            REGION, duration=15.0, seed=1).requests())
        read = set()
        overwrites = 0
        for request in trace:
            for unit in request.split():
                if unit.is_read:
                    read.add(unit.lba)
                elif unit.lba in read:
                    overwrites += 1
        assert overwrites > 500

    def test_header_only_detector_false_alarms(self, pretrained_tree):
        """Defragmentation is NOT in the paper's Table I; against the
        catalog-trained header-only tree it is a genuine false-alarm
        source (sustained, long, read-then-overwrite runs).  Documented
        as a known limitation — and the motivation for the entropy
        extension, which suppresses it (see test below)."""
        run = Scenario("defrag-only", app="defrag").build(
            seed=5, duration=45.0
        )
        outcome = evaluate_run(run, pretrained_tree)
        assert outcome.alarmed_at(3)

    def test_entropy_gate_suppresses_defrag_false_alarm(self, pretrained_tree):
        """A defragmenter rewrites blocks with their *original* (low
        entropy) content; the content-aware hybrid therefore vetoes the
        header verdicts the plain tree raises."""
        from repro.core.entropy import HybridDetector
        from repro.ssd.config import SSDConfig
        from repro.ssd.device import SimulatedSSD

        hybrid = HybridDetector(pretrained_tree)
        ssd = SimulatedSSD(SSDConfig.small(), tree=hybrid)
        payload = b"user document content " * 100
        for lba in range(4000):
            ssd.write(lba, payload, now=0.002 * lba)
        ssd.tick(30.0)
        # Defragment: read a long run, rewrite it compacted (the same
        # low-entropy content lands back on the just-read blocks).
        now = 30.0
        for start in range(0, 3600, 120):
            for lba in range(start, start + 120):
                ssd.read(lba, now=now)
                now += 0.0008
            for lba in range(start, start + 120):
                ssd.write(lba, payload, now=now)
                now += 0.0008
        ssd.tick(now + 2.0)
        assert not ssd.alarm_raised
        assert hybrid.suppressed > 0


class TestAntivirus:
    def test_read_dominated(self):
        stats = Trace(APP_REGISTRY["antivirus"].factory(
            REGION, duration=15.0, seed=1).requests()).stats()
        assert stats.blocks_read > 50 * max(1, stats.blocks_written)

    def test_no_false_alarm_at_operating_point(self, pretrained_tree):
        run = Scenario("av-only", app="antivirus").build(
            seed=5, duration=45.0
        )
        outcome = evaluate_run(run, pretrained_tree)
        assert not outcome.alarmed_at(3)

    def test_ransomware_still_detected_under_av_scan(self, pretrained_tree):
        """A full-disk scan is heavy read noise; the sample must still be
        caught through it."""
        run = Scenario("av-attack", ransomware="wannacry",
                       app="antivirus").build(seed=6, duration=60.0)
        outcome = evaluate_run(run, pretrained_tree)
        assert outcome.detected_at(3)
