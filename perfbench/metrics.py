"""The benchmark's metric definitions: names, units, directions and bounds.

End-to-end metrics are measured with tracing off and carry two bounds:

* ``bound`` is what ``python -m perfbench compare`` applies when it sets
  runs of a parent and a change side by side, both at one seed;
* ``listed_bound`` is set on the metrics ``BENCHMARK.json`` lists, the ones
  every workload reports with a value that is never 0.  That file's bound
  also has to hold across ten runs at ten different seeds, so it is wider
  where seeds and host speed spread a metric more than ``bound`` allows.

Per-layer metrics come from the traced run and have no bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from perfbench.trace import LAYERS


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric."""

    name: str
    unit: str
    better: str
    #: Share of the parent's median by which it may worsen (0: not at all).
    bound: float
    #: The workloads that report it.
    workloads: Tuple[str, ...]
    #: Its bound in ``BENCHMARK.json``; None when the file does not list it.
    listed_bound: Optional[float] = None


ALL = ("golden_attack", "benign_readmix", "detector_1m", "fleet_testing")
PER_CALL = ("golden_attack", "benign_readmix", "detector_1m")

#: ``BENCHMARK.json`` bounds the two timings at 25 %, the most it allows.
#: Ten 10 s runs at ten seeds spread ``requests_per_s`` by 2-19 % (IQR over
#: median) and ``setup_s`` by 3-19 % (45 % once), because this shared
#: 2-vCPU host runs up to twice as slow for a minute or two at a time;
#: ``peak_rss_mb`` moved with the seed's trace size by at most 2.4 %.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.10, ALL, listed_bound=0.25),
    Metric("requests_per_s", "req/s", "higher", 0.10, ALL, listed_bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05, ALL, listed_bound=0.10),
    Metric("request_p50_us", "us", "lower", 0.10, PER_CALL),
    Metric("request_p99_us", "us", "lower", 0.10, PER_CALL),
    Metric("rollback_p50_ms", "ms", "lower", 0.10, ("golden_attack",)),
    Metric("devices_per_s", "dev/s", "higher", 0.10, ("fleet_testing",)),
    Metric("failed_fraction", "ratio", "lower", 0.0, ALL),
)

#: The metrics ``BENCHMARK.json`` lists, in its order.
LISTED: Tuple[Metric, ...] = tuple(
    metric for metric in END_TO_END if metric.listed_bound is not None)

BY_NAME = {metric.name: metric for metric in END_TO_END}

#: Ratios derived from the traced run: (name, unit, better).
DERIVED: Tuple[Tuple[str, str, str], ...] = (
    ("ftl.write_amplification", "ratio", "lower"),
    ("ftl.gc.copies_per_erase", "ratio", "lower"),
    ("ftl.queue.evictions_per_push", "ratio", "lower"),
    ("nand.programs_per_host_write", "ratio", "lower"),
    ("core.fast_forward_share", "ratio", "higher"),
    ("trace.coverage_pct", "%", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


def per_layer() -> Tuple[Tuple[str, str, str], ...]:
    """Every per-layer metric a traced run reports: (name, unit, better)."""
    layers = tuple(
        (f"{layer}.{suffix}", unit, "lower")
        for layer in LAYERS
        for suffix, unit in (("calls", "count"), ("self_ms", "ms"),
                             ("self_pct", "%"))
    )
    return layers + DERIVED
