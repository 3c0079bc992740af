"""Unified observability: tracing, metrics and profiling for the firmware.

Six pieces:

* :mod:`repro.obs.metrics` — a metrics registry (counters, gauges,
  mergeable log-bucketed histograms) with labeled series, registry-level
  ``merge``/``to_compact``, periodic sim-time snapshots, and
  text/JSON/Prometheus renderers;
* :mod:`repro.obs.hist` — the mergeable HDR-style
  :class:`~repro.obs.hist.LogHistogram` primitive the registry's
  latency/occupancy series are built on;
* :mod:`repro.obs.prof` — the layer-attributed
  :class:`~repro.obs.prof.LayerProfiler`: inclusive/exclusive wall time
  and call counts per device-path layer, measured by wrappers it installs
  from the outside while armed, rendered by
  ``python -m repro.tools.profile``;
* :mod:`repro.obs.tracer` — a structured event tracer recording spans and
  instants on the simulated clock *and* host ``perf_counter`` time, with a
  Chrome-trace-event (Perfetto-compatible) exporter;
* :mod:`repro.obs.forensics` — decision attribution: per-slice feature
  vectors, exact ID3 root-to-leaf paths, margins-to-flip, near-misses;
* :mod:`repro.obs.flightrec` — the always-on flight recorder: bounded
  ring buffers snapshotted into self-contained incident bundles when an
  alarm fires, the device locks down, or the degraded latch sets.

:class:`Observability` bundles the tracer, metrics and flight recorder
for threading through the data path (:class:`~repro.ssd.device.SimulatedSSD`,
the detector, the FTLs); the profiler needs no threading — it is armed
around a run with ``with LayerProfiler():``.

By default everything is **off**: the device carries a disabled bundle
whose tracer is the shared no-op :data:`~repro.obs.tracer.NULL_TRACER`,
and instrumented code branches away before building any event arguments,
so un-observed runs pay nothing measurable.  Turn it on with::

    from repro.obs import Observability
    obs = Observability.on()
    device = SimulatedSSD(config, obs=obs)
    ...                                # run any workload
    obs.tracer.write_chrome_trace("trace.json")   # open in Perfetto
    print(obs.metrics.render_prometheus())

See ``docs/observability.md`` for the event taxonomy and naming rules.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional

from repro.clock import SimClock
from repro.obs.flightrec import FlightRecorder
from repro.obs.hist import LogHistogram
from repro.obs.metrics import (
    Counter,
    Gauge,
    LogHistogramFamily,
    MetricsRegistry,
)
from repro.obs.prof import LayerProfiler, build_report
from repro.obs.tracer import (
    NULL_TRACER,
    EventTracer,
    NullTracer,
    TraceEvent,
)


class Observability:
    """The tracer + metrics + flight-recorder bundle.

    Args:
        tracer: A recording tracer; defaults to the no-op
            :data:`~repro.obs.tracer.NULL_TRACER`.
        metrics: A metrics registry; created on demand when omitted.
        flightrec: An optional :class:`~repro.obs.flightrec.FlightRecorder`
            capturing the last-N-seconds black box for incident bundles.
        snapshot_interval: Simulated seconds between automatic
            :meth:`~repro.obs.metrics.MetricsRegistry.record_snapshot`
            rows (``None`` disables periodic snapshots).

    The bundle counts as :attr:`enabled` when any piece was supplied
    explicitly — passing only a registry gives metrics without trace
    events, and vice versa.
    """

    def __init__(
        self,
        tracer: Optional[NullTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        flightrec: Optional[FlightRecorder] = None,
        snapshot_interval: Optional[float] = None,
    ) -> None:
        self.enabled = (
            tracer is not None or metrics is not None
            or flightrec is not None
        )
        #: Whether a *recording* tracer / metrics registry was supplied.
        #: Components gate per-request span and counter work on these
        #: instead of :attr:`enabled`, so a flight-recorder-only bundle
        #: does not drag the full metrics/tracer hot path back in.
        self.armed_tracer = tracer is not None
        self.armed_metrics = metrics is not None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.flightrec = flightrec
        self.snapshot_interval = snapshot_interval
        self._last_snapshot: Optional[float] = None

    @classmethod
    def off(cls) -> "Observability":
        """A disabled bundle (what every component defaults to)."""
        return cls()

    @classmethod
    def on(
        cls,
        clock: Optional[SimClock] = None,
        max_events: Optional[int] = None,
        flight: Optional[FlightRecorder] = None,
        snapshot_interval: Optional[float] = None,
    ) -> "Observability":
        """A live bundle: recording tracer + fresh metrics registry.

        Pass ``flight=FlightRecorder(...)`` to also arm the black-box
        flight recorder and ``snapshot_interval=<sim seconds>`` to record
        periodic scalar snapshots into the registry.
        """
        return cls(
            tracer=EventTracer(clock=clock, max_events=max_events),
            metrics=MetricsRegistry(),
            flightrec=flight,
            snapshot_interval=snapshot_interval,
        )

    def bind_clock(self, clock: SimClock) -> None:
        """Point the tracer's simulated timestamps at ``clock``."""
        if isinstance(self.tracer, EventTracer):
            self.tracer.bind_clock(clock)

    def maybe_snapshot(
        self,
        sim_time: float,
        before: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Record a registry snapshot if the sim-time interval elapsed.

        ``before`` (e.g. the device's gauge-refresh hook) runs only when a
        snapshot is actually due, so the periodic path stays one float
        compare when it is not.  Returns True when a row was recorded.
        """
        interval = self.snapshot_interval
        if interval is None:
            return False
        last = self._last_snapshot
        if last is not None and sim_time - last < interval:
            return False
        if before is not None:
            before()
        self.metrics.record_snapshot(sim_time, wall_time=perf_counter())
        self._last_snapshot = sim_time
        return True


__all__ = [
    "Counter",
    "EventTracer",
    "FlightRecorder",
    "Gauge",
    "LayerProfiler",
    "LogHistogram",
    "LogHistogramFamily",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "TraceEvent",
    "build_report",
]
