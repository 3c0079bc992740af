"""The detector's state must stay bounded over long, heavy streams —
firmware has fixed DRAM (Table III), so unbounded growth is a defect."""

import time
import tracemalloc

import pytest

from repro.blockdev.request import read, write
from repro.core.detector import RansomwareDetector
from repro.core.id3 import DecisionTree, TreeNode
from repro.rand import derive_rng


def constant_tree(label: int) -> DecisionTree:
    tree = DecisionTree()
    tree.root = TreeNode(label=label)
    return tree


class TestBoundedness:
    def test_counting_table_bounded_over_long_heavy_stream(self):
        """10 simulated minutes of 2000 blk/s random I/O: the table holds
        at most one window's worth of entries, never the whole history."""
        detector = RansomwareDetector(tree=constant_tree(0),
                                      keep_history=False)
        rng = derive_rng(1, "boundedness")
        peak_hash = peak_entries = 0
        now = 0.0
        for second in range(600):
            for _ in range(100):  # 100 requests/s, many multi-block
                lba = int(rng.integers(0, 2_000_000))
                if rng.random() < 0.6:
                    detector.observe(read(now, lba, length=8))
                else:
                    detector.observe(write(now, lba, length=8))
                now += 0.01
            peak_hash = max(peak_hash, detector.table.hash_entries)
            peak_entries = max(peak_entries, len(detector.table))
        # One window holds ~ 10s x 480 read blocks/s = ~5k hashed LBAs.
        assert peak_hash < 60_000
        assert peak_entries < 60_000
        # And Table III's provisioning covers the measured peak.
        assert peak_hash < 250_000

    def test_history_off_keeps_no_events(self):
        detector = RansomwareDetector(tree=constant_tree(0),
                                      keep_history=False)
        detector.tick(600.0)
        assert detector.events == []

    def test_idle_gap_history_costs_o1(self):
        """One header a million slices after the first: the skipped gap is
        recorded as one segment, not one event per slice."""
        detector = RansomwareDetector()
        detector.observe(read(0.5, 1))
        tracemalloc.start()
        try:
            started = time.perf_counter()
            detector.observe(read(1e6, 2))
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 64_000, f"{peak} B traced for a 1M-slice gap"
        assert len(detector.events) == 1_000_000
        assert detector.fast_forwarded_slices > 999_900
        last = detector.events[-1]
        assert (last.slice_index, last.time) == (999_999, 1_000_000.0)

    def test_score_window_never_exceeds_n(self):
        detector = RansomwareDetector(tree=constant_tree(1),
                                      keep_history=False)
        detector.tick(300.0)
        assert detector.score <= detector.config.window_slices
