"""Sliding window aggregates."""

import pytest

from repro.core.window import SliceStats, SlidingWindow
from repro.errors import ConfigError


def make_slice(index, rio=0, wio=0, owio=0, lbas=()):
    stats = SliceStats(index=index, rio=rio, wio=wio, owio=owio)
    stats.overwritten_lbas.update(lbas)
    return stats


class TestSliceStats:
    def test_io_is_rio_plus_wio(self):
        assert make_slice(0, rio=3, wio=4).io == 7


class TestSlidingWindow:
    def test_evicts_oldest(self):
        window = SlidingWindow(3)
        for index in range(5):
            window.push(make_slice(index))
        assert [stats.index for stats in window] == [2, 3, 4]

    def test_latest(self):
        window = SlidingWindow(3)
        assert window.latest is None
        window.push(make_slice(7))
        assert window.latest.index == 7

    def test_pwio_excludes_latest(self):
        window = SlidingWindow(3)
        window.push(make_slice(0, owio=5))
        window.push(make_slice(1, owio=7))
        window.push(make_slice(2, owio=100))
        assert window.pwio() == 12

    def test_pwio_single_slice_is_zero(self):
        window = SlidingWindow(3)
        window.push(make_slice(0, owio=5))
        assert window.pwio() == 0

    def test_wio_window(self):
        window = SlidingWindow(2)
        window.push(make_slice(0, wio=5))
        window.push(make_slice(1, wio=3))
        assert window.wio_window() == 8

    def test_unique_overwritten_deduplicates_across_slices(self):
        window = SlidingWindow(3)
        window.push(make_slice(0, lbas={1, 2}))
        window.push(make_slice(1, lbas={2, 3}))
        assert window.unique_overwritten() == 3

    def test_unique_overwritten_after_eviction(self):
        window = SlidingWindow(2)
        window.push(make_slice(0, lbas={1}))
        window.push(make_slice(1, lbas={2}))
        window.push(make_slice(2, lbas={3}))
        assert window.unique_overwritten() == 2

    def test_rejects_empty_window(self):
        with pytest.raises(ConfigError):
            SlidingWindow(0)
