"""Device-level throughput model.

Fig. 8 argues per-op software overhead is negligible; this model closes
the loop at the *device* level: it services a trace against the NAND
array's channel/way parallelism (each chip serialises its own page
operations; chips run concurrently) with the firmware cost model on top,
and reports the achieved bandwidth with and without SSD-Insider.  The
paper's prototype numbers — 1.2 GB/s reads / 700 MB/s writes on an
8-channel x 8-way card — emerge from the same arithmetic at that geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.blockdev.trace import Trace
from repro.nand.geometry import NandGeometry
from repro.nand.latency import NandLatencies
from repro.ssd.timing import FirmwareCosts, LatencyModel, TraceProfile
from repro.units import BLOCK_SIZE, MIB, NS


@dataclass(frozen=True)
class ThroughputReport:
    """Outcome of servicing one trace."""

    blocks_read: int
    blocks_written: int
    service_time_s: float
    #: Mean per-chip busy fraction over the service time.
    chip_utilization: float

    @property
    def read_mib_per_s(self) -> float:
        """Achieved read bandwidth."""
        if self.service_time_s <= 0:
            return 0.0
        return self.blocks_read * BLOCK_SIZE / MIB / self.service_time_s

    @property
    def write_mib_per_s(self) -> float:
        """Achieved write bandwidth."""
        if self.service_time_s <= 0:
            return 0.0
        return self.blocks_written * BLOCK_SIZE / MIB / self.service_time_s


def simulate_throughput(
    trace: Trace,
    geometry: Optional[NandGeometry] = None,
    latencies: Optional[NandLatencies] = None,
    insider_enabled: bool = True,
    profile: Optional[TraceProfile] = None,
    costs: Optional[FirmwareCosts] = None,
    saturate: bool = True,
) -> ThroughputReport:
    """Service a trace against the chip grid and measure bandwidth.

    Blocks stripe across chips round-robin (write-striping firmware); each
    block op holds its chip for the NAND latency plus the firmware's
    software time (FTL, and the insider's share when enabled).  With
    ``saturate`` the trace's own timestamps are ignored — requests are
    issued back-to-back, measuring the device's capability rather than the
    workload's demand.
    """
    geometry = geometry or NandGeometry.small()
    latencies = latencies or NandLatencies()
    model = LatencyModel(costs=costs, nand=latencies)
    if profile is None:
        profile = TraceProfile(reads=0, writes=0, read_hit_rate=0.3,
                               overwrite_rate=0.3)
    read_software_ns = model.ftl_read_ns()
    write_software_ns = model.ftl_write_ns()
    if insider_enabled:
        read_software_ns += model.insider_read_ns(profile)
        write_software_ns += model.insider_write_ns(profile)
    read_cost = latencies.page_read + read_software_ns * NS
    write_cost = latencies.page_program + write_software_ns * NS

    chip_busy_until: List[float] = [0.0] * geometry.num_chips
    chip_busy_total: List[float] = [0.0] * geometry.num_chips
    blocks_read = blocks_written = 0
    finish = 0.0
    for request in trace:
        issue = 0.0 if saturate else request.time
        for lba in request.lbas():
            chip = lba % geometry.num_chips
            cost = read_cost if request.is_read else write_cost
            begin = max(issue, chip_busy_until[chip])
            chip_busy_until[chip] = begin + cost
            chip_busy_total[chip] += cost
            finish = max(finish, chip_busy_until[chip])
            if request.is_read:
                blocks_read += 1
            else:
                blocks_written += 1
    utilization = (
        sum(chip_busy_total) / (len(chip_busy_total) * finish)
        if finish > 0
        else 0.0
    )
    return ThroughputReport(
        blocks_read=blocks_read,
        blocks_written=blocks_written,
        service_time_s=finish,
        chip_utilization=utilization,
    )


def peak_bandwidth_mib(
    geometry: NandGeometry,
    latencies: Optional[NandLatencies] = None,
    write: bool = False,
) -> float:
    """Theoretical device bandwidth when every chip streams one op type."""
    latencies = latencies or NandLatencies()
    per_op = latencies.page_program if write else latencies.page_read
    per_chip = BLOCK_SIZE / per_op
    return per_chip * geometry.num_chips / MIB
