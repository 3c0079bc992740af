"""Unified observability: tracing, metrics and profiling for the firmware.

* :mod:`repro.obs.tracer` — spans and instants on the simulated and host
  clocks, exported as a Chrome/Perfetto trace;
* :mod:`repro.obs.metrics` / :mod:`repro.obs.hist` — a registry of
  counters, gauges and mergeable log-bucketed histograms;
* :mod:`repro.obs.flightrec` / :mod:`repro.obs.forensics` — the bounded
  flight recorder, its incident bundles and per-slice decision
  attribution;
* :mod:`repro.obs.probe` — the probe the data path publishes domain
  events to, and :class:`Observability`, the probe that fans them out to
  the three pieces above;
* :mod:`repro.obs.prof` — the layer profiler, armed around a run with
  ``with LayerProfiler():`` from the outside.

Everything is **off** by default: a device built without ``obs=``
carries the shared no-op :data:`~repro.obs.probe.NULL_PROBE`, and an
unobserved request makes no extra call.  Turn it on with::

    from repro.obs import Observability
    obs = Observability.on()
    device = SimulatedSSD(config, obs=obs)
    ...                                # run any workload
    device.refresh_obs_metrics()       # sync derived gauges
    obs.tracer.write_chrome_trace("trace.json")   # open in Perfetto
    print(obs.metrics.render_prometheus())

See ``docs/observability.md`` for the event taxonomy and naming rules.
"""

from __future__ import annotations

from repro.obs.flightrec import FlightRecorder
from repro.obs.hist import LogHistogram
from repro.obs.metrics import (
    Counter,
    Gauge,
    LogHistogramFamily,
    MetricsRegistry,
)
from repro.obs.probe import NULL_PROBE, Observability, Probe
from repro.obs.prof import LayerProfiler, build_report
from repro.obs.tracer import (
    NULL_TRACER,
    EventTracer,
    NullTracer,
    TraceEvent,
)

__all__ = [
    "Counter",
    "EventTracer",
    "FlightRecorder",
    "Gauge",
    "LayerProfiler",
    "LogHistogram",
    "LogHistogramFamily",
    "MetricsRegistry",
    "NULL_PROBE",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "Probe",
    "TraceEvent",
    "build_report",
]
