"""Device-level throughput model."""

import pytest

from repro.blockdev.request import read, write
from repro.blockdev.trace import Trace
from repro.nand.geometry import NandGeometry
from repro.ssd.throughput import (
    peak_bandwidth_mib,
    simulate_throughput,
)


def sequential_trace(blocks=4096, mode="read") -> Trace:
    maker = read if mode == "read" else write
    return Trace(maker(i * 1e-6, i * 8, length=8) for i in range(blocks // 8))


class TestPeakBandwidth:
    def test_paper_card_read_bandwidth(self):
        """The 8x8 prototype's ~1.2 GB/s reads emerge from the geometry."""
        geometry = NandGeometry.paper_prototype()
        peak = peak_bandwidth_mib(geometry)
        assert 3000 <= peak <= 6000  # 64 chips x 4KiB / 50us = 5000 MiB/s raw

    def test_writes_slower_than_reads(self):
        geometry = NandGeometry.small()
        assert peak_bandwidth_mib(geometry, write=True) < \
            peak_bandwidth_mib(geometry, write=False)


class TestSimulateThroughput:
    def test_striping_approaches_peak(self):
        geometry = NandGeometry.small()
        report = simulate_throughput(sequential_trace(), geometry)
        peak = peak_bandwidth_mib(geometry)
        assert report.read_mib_per_s > 0.8 * peak
        assert report.chip_utilization > 0.8

    def test_more_chips_more_bandwidth(self):
        small = simulate_throughput(
            sequential_trace(),
            NandGeometry(channels=1, ways=1, blocks_per_chip=64,
                         pages_per_block=64),
        )
        big = simulate_throughput(
            sequential_trace(),
            NandGeometry(channels=4, ways=4, blocks_per_chip=64,
                         pages_per_block=64),
        )
        assert big.read_mib_per_s > 4 * small.read_mib_per_s

    def test_insider_overhead_negligible_at_device_level(self):
        """The Fig. 8 conclusion, device-level: enabling the insider costs
        well under 1% of bandwidth."""
        geometry = NandGeometry.small()
        with_insider = simulate_throughput(sequential_trace(mode="write"),
                                           geometry, insider_enabled=True)
        without = simulate_throughput(sequential_trace(mode="write"),
                                      geometry, insider_enabled=False)
        slowdown = 1.0 - (with_insider.write_mib_per_s
                          / without.write_mib_per_s)
        assert 0.0 <= slowdown < 0.01

    def test_counts(self):
        report = simulate_throughput(sequential_trace(blocks=256))
        assert report.blocks_read == 256
        assert report.blocks_written == 0

    def test_empty_trace(self):
        report = simulate_throughput(Trace())
        assert report.service_time_s == 0.0
        assert report.read_mib_per_s == report.write_mib_per_s == 0.0

    def test_demand_limited_mode(self):
        """With saturate=False a sparse trace is bounded by its own
        timestamps, not the device."""
        sparse = Trace(read(float(i), i) for i in range(10))
        report = simulate_throughput(sparse, saturate=False)
        assert report.service_time_s >= 9.0
        assert report.chip_utilization < 0.01
