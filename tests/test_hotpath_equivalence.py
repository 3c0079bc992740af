"""Equivalence: optimised hot path vs naive reference implementations.

The counting-table rewrite (expiry buckets, free-list store, running WL
total), the incremental window aggregates, and the detector's idle
fast-forward must be *invisible*: on identical traces the optimised
detector and the obviously-correct :mod:`tests.oracles.reference` oracle must
produce bit-identical DetectionEvent streams — features, verdicts, scores,
and the alarm slice.
"""

from __future__ import annotations

import random

import pytest

from repro.blockdev.request import read, write
from repro.core.config import DetectorConfig
from repro.core.counting_table import CountingTable
from repro.core.detector import RansomwareDetector
from repro.core.window import SliceStats, SlidingWindow
from repro.tools.profile import GOLDEN_SEED, golden_scenario
from tests.oracles.reference import (
    NaiveCountingTable,
    NaiveSlidingWindow,
    ReferenceDetector,
)

#: The golden Table-I-style combination: unknown ransomware over an
#: IO-heavy background app, the hardest mix for feature stability.
GOLDEN_SCENARIO = golden_scenario()


def replay_both(trace, config=None, keep_history=True):
    fast = RansomwareDetector(config=config, keep_history=keep_history)
    naive = ReferenceDetector(config=config)
    for request in trace:
        fast.observe(request)
        naive.observe(request)
    end = trace.end_time + (config or DetectorConfig()).slice_duration
    fast.tick(end)
    naive.tick(end)
    return fast, naive


def assert_event_streams_equal(fast, naive):
    assert len(fast.events) == len(naive.events)
    for ours, ref in zip(fast.events, naive.events):
        assert ours.slice_index == ref.slice_index
        assert ours.time == ref.time
        assert ours.features == ref.features, (
            f"slice {ref.slice_index}: {ours.features} != {ref.features}"
        )
        assert ours.verdict == ref.verdict
        assert ours.score == ref.score
        assert ours.alarm == ref.alarm
    if naive.alarm_event is None:
        assert fast.alarm_event is None
    else:
        assert fast.alarm_event is not None
        assert fast.alarm_event.slice_index == naive.alarm_event.slice_index


class TestGoldenScenarioEquivalence:
    def test_attack_run_bit_identical(self):
        run = GOLDEN_SCENARIO.build(seed=GOLDEN_SEED)
        fast, naive = replay_both(run.trace)
        assert_event_streams_equal(fast, naive)
        assert naive.alarm_raised, "golden attack scenario must alarm"

    def test_benign_run_bit_identical(self):
        run = GOLDEN_SCENARIO.build(seed=GOLDEN_SEED, include_ransomware=False)
        fast, naive = replay_both(run.trace)
        assert_event_streams_equal(fast, naive)

    def test_second_seed_and_config(self):
        config = DetectorConfig(slice_duration=0.5, window_slices=8, threshold=2)
        run = GOLDEN_SCENARIO.build(seed=GOLDEN_SEED + 1)
        fast, naive = replay_both(run.trace, config=config)
        assert_event_streams_equal(fast, naive)


class TestIdleGapEquivalence:
    def make_gappy_requests(self):
        """Activity, a long idle gap (fast-forwardable), more activity."""
        requests = []
        t = 0.0
        for i in range(300):
            t += 0.01
            requests.append(read(t, 100 + (i % 50)))
            if i % 3 == 0:
                requests.append(write(t, 100 + (i % 50)))
        # ~400-slice idle gap, then a second burst.
        t += 400.0
        for i in range(200):
            t += 0.01
            requests.append(read(t, 500 + (i % 30)))
            requests.append(write(t, 500 + (i % 30)))
        return requests

    def test_gap_event_stream_identical_with_history(self):
        fast = RansomwareDetector()
        naive = ReferenceDetector()
        for request in self.make_gappy_requests():
            fast.observe(request)
            naive.observe(request)
        fast.tick(500.0)
        naive.tick(500.0)
        assert fast.fast_forwarded_slices > 0, "gap must take the fast path"
        assert_event_streams_equal(fast, naive)

    def test_gapped_history_reads_like_the_event_list(self):
        """Three idle gaps, two of them back to back: indexing, negative
        indexing, slicing, iteration and == all match the oracle's list."""
        fast, naive = RansomwareDetector(), ReferenceDetector()
        for request in self.make_gappy_requests():
            fast.observe(request)
            naive.observe(request)
        for now in (1000.0, 1200.0):
            fast.tick(now)
            naive.tick(now)
        assert len(fast.events._gaps) == 3
        expected = naive.events
        assert list(fast.events) == expected
        assert fast.events == expected and expected == fast.events
        assert fast.events != expected[:-1]
        assert fast.events != expected[:-1] + [expected[0]]
        size = len(expected)
        assert len(fast.events) == size
        for position in range(-size, size):
            assert fast.events[position] == expected[position]
        for window in (1, 10, 50, size + 5):
            assert fast.events[-window:] == expected[-window:]
        assert fast.events[3:900:7] == expected[3:900:7]
        assert fast.events[::-5] == expected[::-5]
        for position in (size, -size - 1):
            with pytest.raises(IndexError):
                fast.events[position]

    def test_gap_skips_per_slice_iteration_without_history(self):
        fast = RansomwareDetector(keep_history=False)
        for request in self.make_gappy_requests():
            fast.observe(request)
        fast.tick(500.0)
        # The ~400-slice gap must be jumped, not walked.
        assert fast.fast_forwarded_slices >= 300
        assert fast.events == []

    def test_gap_final_state_matches_reference(self):
        fast = RansomwareDetector(keep_history=False)
        naive = ReferenceDetector()
        for request in self.make_gappy_requests():
            fast.observe(request)
            naive.observe(request)
        fast.tick(500.0)
        naive.tick(500.0)
        assert fast.score == naive.scores.score
        assert fast._current.index == naive._current.index
        assert len(fast.table) == len(naive.table)
        assert fast.table.mean_wl() == naive.table.mean_wl()
        assert list(fast.window) == list(naive.window)
        assert fast.window.pwio() == naive.window.pwio()
        assert fast.window.wio_window() == naive.window.wio_window()
        assert fast.window.unique_overwritten() == naive.window.unique_overwritten()
        assert fast.alarm_raised == naive.alarm_raised


class TestStructureEquivalence:
    """Randomised micro-equivalence of the structures themselves."""

    def test_counting_table_shapes_match(self):
        rng = random.Random(42)
        fast, naive = CountingTable(), NaiveCountingTable()
        slice_index = 0
        for step in range(8000):
            if rng.random() < 0.01:
                slice_index += 1
                fast.expire(slice_index - 5)
                naive.expire(slice_index - 5)
            lba = rng.randrange(0, 300)
            if rng.random() < 0.6:
                fast.record_read(lba, slice_index)
                naive.record_read(lba, slice_index)
            else:
                assert (fast.record_write(lba, slice_index)
                        == naive.record_write(lba, slice_index))
            if step % 500 == 0:
                assert len(fast) == len(naive)
                assert fast.hash_entries == naive.hash_entries
                assert fast.mean_wl() == naive.mean_wl()
        fast_shape = sorted((e.lba, e.rl, e.wl, e.slice_index) for e in fast)
        naive_shape = sorted((e.lba, e.rl, e.wl, e.slice_index) for e in naive)
        assert fast_shape == naive_shape

    def test_window_aggregates_match(self):
        rng = random.Random(99)
        fast, naive = SlidingWindow(10), NaiveSlidingWindow(10)
        for index in range(500):
            stats = SliceStats(index=index, rio=rng.randrange(0, 50),
                               wio=rng.randrange(0, 50),
                               owio=rng.randrange(0, 20))
            stats.overwritten_lbas.update(
                rng.randrange(0, 40) for _ in range(rng.randrange(0, 10)))
            mirror = SliceStats(index=index, rio=stats.rio, wio=stats.wio,
                                owio=stats.owio,
                                overwritten_lbas=set(stats.overwritten_lbas))
            fast.push(stats)
            naive.push(mirror)
            assert list(fast) == list(naive)
            assert fast.pwio() == naive.pwio()
            assert fast.wio_window() == naive.wio_window()
            assert fast.unique_overwritten() == naive.unique_overwritten()
