"""The detector's cached slice boundary is exact, to the last ulp.

:meth:`RansomwareDetector.observe` calls :meth:`~RansomwareDetector.tick`
only when a header's timestamp reaches the cached start of the next slice.
That shortcut is sound only if the cached float is exactly where
``int(t // slice_duration)`` steps up — ``(index + 1) * duration`` is not
(``0.5 // 0.1 == 4.0``).  These tests pin the boundary itself and replay
seeded header streams whose timestamps sit on and one ulp either side of
every boundary against the slice-by-slice reference detector.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.blockdev.request import IOMode, IORequest
from repro.core.config import DetectorConfig
from repro.core.counting_table import MAX_RUN_BLOCKS
from repro.core.detector import RansomwareDetector
from tests.oracles.reference import ReferenceDetector

DURATIONS = (1.0, 0.1, 1 / 3, 0.7, 2.5, 1e-3)


def below(t: float) -> float:
    return math.nextafter(t, -math.inf)


def above(t: float) -> float:
    return math.nextafter(t, math.inf)


class CountingTicks(RansomwareDetector):
    """The shipped detector, counting every :meth:`tick` it runs."""

    ticks = 0

    def tick(self, now: float) -> None:
        self.ticks += 1
        super().tick(now)


class TickEveryHeader(RansomwareDetector):
    """The detector as it was before the cache: tick on every header."""

    def observe(self, request: IORequest) -> None:
        self.tick(request.time)
        super().observe(request)


@pytest.mark.parametrize("duration", DURATIONS)
def test_cached_boundary_is_first_float_of_its_slice(duration, pretrained_tree):
    detector = RansomwareDetector(
        tree=pretrained_tree, config=DetectorConfig(slice_duration=duration))
    for index in range(10_000):
        start = detector._slice_start(index)
        assert int(start // duration) >= index > int(below(start) // duration)


@pytest.mark.parametrize("duration", DURATIONS)
def test_tick_refreshes_the_cache(duration, pretrained_tree):
    detector = RansomwareDetector(
        tree=pretrained_tree, config=DetectorConfig(slice_duration=duration))
    assert detector._next_boundary == detector._slice_start(1)
    for now in (0.5 * duration, 3 * duration, 2.5 * duration, 400 * duration):
        expected = max(detector._current.index, int(now // duration))
        detector.tick(now)
        assert detector._current.index == expected
        assert detector._next_boundary == detector._slice_start(
            detector._current.index + 1)


def header_stream(rng: random.Random, duration: float, count: int):
    """Headers and control steps with timestamps hugging slice boundaries."""
    index = 0
    now = 0.0
    for _ in range(count):
        roll = rng.random()
        if roll < 0.003:
            yield ("reset", None)
            continue
        if roll < 0.06:
            # Advance to a boundary: mostly the next few, sometimes a gap
            # long enough for the idle fast-forward.
            index += rng.randrange(1, 4) if rng.random() < 0.97 else rng.randrange(30, 80)
            nominal = index * duration
            candidate = rng.choice((nominal, below(nominal), above(nominal),
                                    below(below(nominal)), above(above(nominal))))
            now = max(now, candidate)
            if roll < 0.01:
                yield ("tick", now)
                continue
        elif roll < 0.2:
            now = max(now, (index + rng.random()) * duration)
        mode = IOMode.READ if rng.random() < 0.55 else IOMode.WRITE
        length = rng.randrange(1, MAX_RUN_BLOCKS + 3) if rng.random() < 0.2 else (
            rng.randrange(1, 5))
        lba = rng.randrange(0, 400)
        yield ("io", IORequest(time=now, lba=lba, mode=mode, length=length))


def table_shape(table):
    return sorted((e.lba, e.rl, e.wl, e.slice_index) for e in table)


def assert_same_events(fast, naive):
    assert [
        (e.slice_index, e.time, e.features, e.verdict, e.score, e.alarm)
        for e in fast.events
    ] == [
        (e.slice_index, e.time, e.features, e.verdict, e.score, e.alarm)
        for e in naive.events
    ]


@pytest.mark.parametrize("duration", DURATIONS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_streams_match_reference(duration, seed, pretrained_tree):
    config = DetectorConfig(slice_duration=duration, window_slices=5, threshold=2)
    fast = CountingTicks(tree=pretrained_tree, config=config)
    every = TickEveryHeader(tree=pretrained_tree, config=config)
    naive = ReferenceDetector(tree=pretrained_tree, config=config)
    rng = random.Random(seed * 1_000 + DURATIONS.index(duration))
    # Explicit ticks plus the headers that open a later slice: an exact
    # boundary never sends a header to tick() without cause.
    expected_ticks = 0
    for step, (kind, value) in enumerate(header_stream(rng, duration, 3_000)):
        if kind == "tick" or (kind == "io" and int(value.time // duration)
                              > naive._current.index):
            expected_ticks += 1
        for detector in (fast, every, naive):
            if kind == "reset":
                detector.reset()
            elif kind == "tick":
                detector.tick(value)
            else:
                detector.observe(value)
        assert fast._current.index == naive._current.index
        assert fast.ticks == expected_ticks
        if step % 97 == 0:
            assert table_shape(fast.table) == table_shape(naive.table)
            assert fast.table.mean_wl() == naive.table.mean_wl()
            assert fast.table.hash_entries == naive.table.hash_entries
    end = naive._current.index + 2
    for detector in (fast, every, naive):
        detector.tick(end * duration)
    assert_same_events(fast, naive)
    assert_same_events(fast, every)
    assert (fast.alarm_event is None) == (naive.alarm_event is None)
    if naive.alarm_event is not None:
        assert fast.alarm_event == naive.alarm_event
    assert fast.fast_forwarded_slices == every.fast_forwarded_slices
    # The stream must reach every path it is meant to pin.
    assert fast.fast_forwarded_slices > 0
    assert any(event.alarm for event in naive.events)
    assert table_shape(fast.table) == table_shape(naive.table)
