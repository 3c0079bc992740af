"""Analytic per-operation latency model (the Fig. 8 reproduction).

Python cannot reproduce firmware nanoseconds, so the overhead experiment
uses an explicit cost model calibrated to the paper's measurements on a
1.2-GHz core: the baseline FTL spends 477 ns per 4-KB read and 1 372 ns per
write, and SSD-Insider's detection/recovery bookkeeping adds ~147 ns and
~254 ns on average.  The insider overhead is decomposed into a fixed hash
probe plus work done only when the probe hits (reads) or when the write is
an overwrite (table update + recovery-queue push), so per-trace overheads
vary with workload behaviour exactly as Fig. 8's bars do.  NAND latencies
(50/500 µs) then dwarf everything, reproducing the paper's "negligible
overhead" conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.blockdev.trace import Trace
from repro.core.config import DetectorConfig
from repro.core.detector import RansomwareDetector
from repro.core.id3 import DecisionTree
from repro.nand.latency import NandLatencies
from repro.units import NS


@dataclass(frozen=True)
class FirmwareCosts:
    """Nanosecond costs of the firmware code paths (1.2-GHz calibration)."""

    #: Baseline FTL: mapping lookup + command handling per 4-KB read.
    ftl_read_ns: float = 477.0
    #: Baseline FTL: mapping update + allocation per 4-KB write.
    ftl_write_ns: float = 1372.0
    #: Insider, read path: counting-table hash probe (always paid).
    insider_read_probe_ns: float = 130.0
    #: Insider, read path: entry create/extend when the probe misses/hits.
    insider_read_update_ns: float = 40.0
    #: Insider, write path: hash probe + slice counters (always paid).
    insider_write_probe_ns: float = 190.0
    #: Insider, write path: WL update + recovery-queue push per overwrite.
    insider_overwrite_ns: float = 130.0


@dataclass(frozen=True)
class TraceProfile:
    """Behavioural rates of a trace that drive the insider's per-op cost."""

    reads: int
    writes: int
    #: Fraction of read blocks that touch an existing counting-table entry.
    read_hit_rate: float
    #: Fraction of written blocks that are overwrites.
    overwrite_rate: float


class LatencyModel:
    """Combines firmware costs with NAND latencies for end-to-end figures."""

    def __init__(
        self,
        costs: Optional[FirmwareCosts] = None,
        nand: Optional[NandLatencies] = None,
    ) -> None:
        self.costs = costs or FirmwareCosts()
        self.nand = nand or NandLatencies()

    # -- per-operation software time (the Fig. 8 bars) -------------------

    def ftl_read_ns(self) -> float:
        """Baseline FTL software time per 4-KB read."""
        return self.costs.ftl_read_ns

    def ftl_write_ns(self) -> float:
        """Baseline FTL software time per 4-KB write."""
        return self.costs.ftl_write_ns

    def insider_read_ns(self, profile: TraceProfile) -> float:
        """Average insider overhead per read for a trace's behaviour."""
        return (
            self.costs.insider_read_probe_ns
            + profile.read_hit_rate * self.costs.insider_read_update_ns
        )

    def insider_write_ns(self, profile: TraceProfile) -> float:
        """Average insider overhead per write for a trace's behaviour."""
        return (
            self.costs.insider_write_probe_ns
            + profile.overwrite_rate * self.costs.insider_overwrite_ns
        )

    # -- end-to-end I/O latency ------------------------------------------

    def read_latency_s(self, profile: TraceProfile) -> float:
        """Full 4-KB read latency including the NAND page read."""
        software_ns = self.ftl_read_ns() + self.insider_read_ns(profile)
        return software_ns * NS + self.nand.page_read

    def write_latency_s(self, profile: TraceProfile) -> float:
        """Full 4-KB write latency including the NAND page program."""
        software_ns = self.ftl_write_ns() + self.insider_write_ns(profile)
        return software_ns * NS + self.nand.page_program

    def insider_read_share(self, profile: TraceProfile) -> float:
        """Insider overhead as a fraction of the full read latency."""
        return self.insider_read_ns(profile) * NS / self.read_latency_s(profile)

    def insider_write_share(self, profile: TraceProfile) -> float:
        """Insider overhead as a fraction of the full write latency."""
        return self.insider_write_ns(profile) * NS / self.write_latency_s(profile)


def profile_trace(trace: Trace, config: Optional[DetectorConfig] = None) -> TraceProfile:
    """Measure a trace's counting-table hit and overwrite rates.

    Replays the trace through the detector, so the rates reflect exactly
    the work the insider code path would do.  A block hits when the
    counting table indexes it as its request arrives: recording one block
    of a request never adds or drops the entry of a later block.
    """
    detector = RansomwareDetector(tree=DecisionTree.constant(0),
                                  config=config, keep_history=False)
    entry_for = detector.table.entry_for
    reads = writes = read_hits = overwrites = 0
    for request in trace:
        # Expire before probing, or entries older than the window count.
        detector.tick(request.time)
        hits = sum(entry_for(lba) is not None for lba in request.lbas())
        if request.is_read:
            reads += request.length
            read_hits += hits
        else:
            writes += request.length
            overwrites += hits
        detector.observe(request)
    return TraceProfile(
        reads=reads,
        writes=writes,
        read_hit_rate=read_hits / reads if reads else 0.0,
        overwrite_rate=overwrites / writes if writes else 0.0,
    )
