"""The metrics registry: counters, gauges, and mergeable log histograms.

The simulated firmware's runtime state has so far been visible only through
the ad-hoc :class:`~repro.ftl.stats.FtlStats` bundle and a one-shot SMART
snapshot.  This module is the general substrate: named metric families with
labeled series, Prometheus-style semantics (counters only go up, gauges go
anywhere, histograms bucket observations), and three renderers — a text
exposition for terminals, a strict Prometheus exposition
(:meth:`MetricsRegistry.render_prometheus`), and a JSON document for
machines.

Distributions are :class:`LogHistogramFamily` series of log-bucketed
HDR-style :class:`~repro.obs.hist.LogHistogram`: unbounded dynamic range
at ~3% relative resolution, no bucket bounds to choose up front, and
**mergeable** across independent runs.

Registries themselves merge (:meth:`MetricsRegistry.merge`) and round-trip
through a compact JSON form (:meth:`MetricsRegistry.to_compact` /
:meth:`MetricsRegistry.from_compact`) so a fleet of N runs aggregates into
one registry whose histogram series are bucket-exact equal to a single
pooled run.  A registry can also record periodic sim-time/wall-time
**snapshots** of its scalar series (:meth:`MetricsRegistry.record_snapshot`)
— a bounded in-memory time series for post-run trend plots.

Naming conventions (see ``docs/observability.md``):

* families are ``snake_case``; counters end in ``_total``;
* units are spelled out in the name (``_seconds``, ``_bytes``, ``_pages``);
* label names are short and low-cardinality (``mode``, ``kind``,
  ``verdict``) — the registry enforces a hard per-family series cap so an
  accidental high-cardinality label (an LBA, a timestamp) fails fast
  instead of silently eating memory.
"""

from __future__ import annotations

import json
import math
from collections import deque
from time import perf_counter
from typing import (
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ObservabilityError
from repro.obs.hist import DEFAULT_MIN_VALUE, DEFAULT_SUBBUCKETS, LogHistogram

#: Hard per-family bound on distinct label-value combinations.
DEFAULT_MAX_SERIES = 1024

#: Default bound on retained time-series snapshots (drop-oldest past it).
DEFAULT_MAX_SNAPSHOTS = 4096

#: Schema stamped into the registry's compact form.
COMPACT_REGISTRY_SCHEMA = "ssd-insider.metrics/v1"

def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ObservabilityError(
            f"metric name must be non-empty snake_case, got {name!r}"
        )
    return name


class MetricFamily:
    """Base class for one named metric and all its labeled series.

    Args:
        name: Family name (``snake_case``; counters end in ``_total``).
        help: One-line human description, shown by the text renderer.
        labelnames: Ordered label names every series must provide.
        max_series: Cardinality cap; exceeding it raises
            :class:`~repro.errors.ObservabilityError`.
    """

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        self.name = _validate_name(name)
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        for label in self.labelnames:
            _validate_name(label)
        self.max_series = max_series
        self._series: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ObservabilityError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        if key not in self._series and len(self._series) >= self.max_series:
            raise ObservabilityError(
                f"metric {self.name!r} exceeded its cardinality cap of "
                f"{self.max_series} series — a high-cardinality label "
                f"(LBA? timestamp?) leaked into the label set"
            )
        return key

    def __len__(self) -> int:
        return len(self._series)

    def labels_of(self, key: Tuple[str, ...]) -> Dict[str, str]:
        """Reconstruct the label dict for one series key."""
        return dict(zip(self.labelnames, key))

    def series_items(self) -> Iterator[Tuple[Tuple[str, ...], object]]:
        """Iterate ``(label-values, series-state)`` pairs."""
        return iter(sorted(self._series.items()))

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready description of the family and all its series."""
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "series": [
                {"labels": self.labels_of(key), **self._series_dict(state)}
                for key, state in self.series_items()
            ],
        }

    def _series_dict(self, state: object) -> Dict[str, object]:
        return {"value": state}

    def render_text(self) -> str:
        """Prometheus-exposition-style text for this family."""
        lines: List[str] = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key, state in self.series_items():
            lines.extend(self._render_series(key, state))
        return "\n".join(lines)

    def _render_series(
        self, key: Tuple[str, ...], state: object
    ) -> List[str]:
        return [f"{self.name}{_label_text(self.labels_of(key))} {_num(state)}"]

    # -- merge & compact form (fleet aggregation substrate) ----------------

    def _params(self) -> Dict[str, object]:
        """Constructor kwargs that recreate an equivalent empty family."""
        return {
            "help": self.help,
            "labelnames": self.labelnames,
            "max_series": self.max_series,
        }

    def _merge_state(self, mine: object, theirs: object) -> object:
        """Combine one series' state with an incoming run's state."""
        raise ObservabilityError(
            f"metric kind {self.kind!r} does not support merging"
        )

    def merge_from(self, other: "MetricFamily") -> None:
        """Fold every series of ``other`` (same family) into this one."""
        if other.kind != self.kind or other.labelnames != self.labelnames:
            raise ObservabilityError(
                f"cannot merge family {other.name!r} ({other.kind}, labels "
                f"{other.labelnames}) into {self.name!r} ({self.kind}, "
                f"labels {self.labelnames})"
            )
        for key, state in other.series_items():
            mine = self._series.get(key)
            if mine is None:
                self._key(other.labels_of(key))  # enforce the series cap
                self._series[key] = self._copy_state(state)
            else:
                self._series[key] = self._merge_state(mine, state)

    def _copy_state(self, state: object) -> object:
        """Independent copy of one series' state (used when adopting)."""
        return state

    def _state_to_compact(self, state: object) -> object:
        """One series' state as a JSON-ready value."""
        return state

    def _state_from_compact(self, payload: object) -> object:
        """Rebuild one series' state from its compact value."""
        return payload

    def to_compact(self) -> Dict[str, object]:
        """JSON-ready lossless form of the family (for fleet shipping)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "max_series": self.max_series,
            "series": [
                {"key": list(key), "state": self._state_to_compact(state)}
                for key, state in self.series_items()
            ],
        }

    def load_compact_series(self, payload: Mapping[str, object]) -> None:
        """Restore the series recorded by :meth:`to_compact`."""
        for row in payload.get("series", ()):  # type: ignore[union-attr]
            key = tuple(str(part) for part in row["key"])
            self._series[key] = self._state_from_compact(row["state"])


def _label_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels.items())
    return "{" + inner + "}"


def _num(value: object) -> str:
    number = float(value)  # type: ignore[arg-type]
    if number == math.inf:
        return "+Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class Counter(MetricFamily):
    """A monotonically increasing count (events, pages, requests)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to the labeled series."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount  # type: ignore[operator]

    def value(self, **labels: object) -> float:
        """Current value of the labeled series (0 if never incremented)."""
        return float(self._series.get(self._key(labels), 0.0))  # type: ignore[arg-type]

    def _merge_state(self, mine: object, theirs: object) -> object:
        # Counts from independent runs add.
        return float(mine) + float(theirs)  # type: ignore[arg-type]


class Gauge(MetricFamily):
    """A value that can go up and down (queue depth, score, ratio)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        """Set the labeled series to ``value``."""
        self._series[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (may be negative) to the labeled series."""
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount  # type: ignore[operator]

    def value(self, **labels: object) -> float:
        """Current value of the labeled series (0 if never set)."""
        return float(self._series.get(self._key(labels), 0.0))  # type: ignore[arg-type]

    def _merge_state(self, mine: object, theirs: object) -> object:
        # A gauge is a point-in-time value; the incoming run's last
        # observation wins (summing queue depths across runs would invent
        # a device that never existed).
        return float(theirs)  # type: ignore[arg-type]


class LogHistogramFamily(MetricFamily):
    """Labeled series of mergeable :class:`~repro.obs.hist.LogHistogram`.

    The registry's default for latency and occupancy distributions: no
    bucket bounds to choose up front, ~``1/subbuckets`` relative
    resolution over an unbounded range, and shard histograms from
    independent runs merge bucket-exactly (see :mod:`repro.obs.hist`).
    """

    kind = "loghistogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        subbuckets: int = DEFAULT_SUBBUCKETS,
        min_value: float = DEFAULT_MIN_VALUE,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        super().__init__(name, help, labelnames, max_series)
        self.subbuckets = int(subbuckets)
        self.min_value = float(min_value)

    def _new_series(self) -> LogHistogram:
        return LogHistogram(subbuckets=self.subbuckets,
                            min_value=self.min_value)

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the labeled series."""
        key = self._key(labels)
        state = self._series.get(key)
        if state is None:
            state = self._new_series()
            self._series[key] = state
        assert isinstance(state, LogHistogram)
        state.record(value)

    def series(self, **labels: object) -> LogHistogram:
        """The labeled series' histogram (created empty on first access)."""
        key = self._key(labels)
        state = self._series.get(key)
        if state is None:
            state = self._new_series()
            self._series[key] = state
        assert isinstance(state, LogHistogram)
        return state

    def count(self, **labels: object) -> int:
        """Observations recorded in the labeled series."""
        state = self._series.get(self._key(labels))
        return state.count if isinstance(state, LogHistogram) else 0

    def sum(self, **labels: object) -> float:
        """Sum of observed values in the labeled series."""
        state = self._series.get(self._key(labels))
        return state.sum if isinstance(state, LogHistogram) else 0.0

    def quantile(self, q: float, **labels: object) -> float:
        """Quantile estimate for the labeled series (0 when empty)."""
        state = self._series.get(self._key(labels))
        return state.quantile(q) if isinstance(state, LogHistogram) else 0.0

    def _params(self) -> Dict[str, object]:
        params = super()._params()
        params["subbuckets"] = self.subbuckets
        params["min_value"] = self.min_value
        return params

    def _series_dict(self, state: object) -> Dict[str, object]:
        assert isinstance(state, LogHistogram)
        return {
            "count": state.count,
            "sum": state.sum,
            "min": state.min,
            "max": state.max,
            "p50": state.quantile(0.50),
            "p99": state.quantile(0.99),
            "compact": state.to_compact(),
        }

    def _render_series(
        self, key: Tuple[str, ...], state: object
    ) -> List[str]:
        assert isinstance(state, LogHistogram)
        labels = self.labels_of(key)
        lines: List[str] = []
        for bound, cumulative in state.cumulative_buckets():
            bucket_labels = dict(labels)
            bucket_labels["le"] = _num(bound)
            lines.append(
                f"{self.name}_bucket{_label_text(bucket_labels)} {cumulative}"
            )
        lines.append(f"{self.name}_sum{_label_text(labels)} {_num(state.sum)}")
        lines.append(f"{self.name}_count{_label_text(labels)} {state.count}")
        return lines

    def render_text(self) -> str:
        """Expose as Prometheus ``histogram`` type (le-cumulative lines)."""
        lines: List[str] = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} histogram")
        for key, state in self.series_items():
            lines.extend(self._render_series(key, state))
        return "\n".join(lines)

    def _merge_state(self, mine: object, theirs: object) -> object:
        assert isinstance(mine, LogHistogram)
        assert isinstance(theirs, LogHistogram)
        return mine.merge(theirs)

    def _copy_state(self, state: object) -> object:
        assert isinstance(state, LogHistogram)
        return self._new_series().merge(state)

    def merge_from(self, other: "MetricFamily") -> None:
        """Fold another log-histogram family in (parameters must match)."""
        if isinstance(other, LogHistogramFamily) and (
                other.subbuckets != self.subbuckets
                or other.min_value != self.min_value):
            raise ObservabilityError(
                f"cannot merge log histogram {other.name!r}: parameters "
                f"differ (({other.subbuckets}, {other.min_value}) vs "
                f"({self.subbuckets}, {self.min_value}))"
            )
        super().merge_from(other)

    def _state_to_compact(self, state: object) -> object:
        assert isinstance(state, LogHistogram)
        return state.to_compact()

    def _state_from_compact(self, payload: object) -> object:
        assert isinstance(payload, Mapping)
        return LogHistogram.from_compact(payload)

    def to_compact(self) -> Dict[str, object]:
        """Compact form including the log-bucket parameters."""
        payload = super().to_compact()
        payload["subbuckets"] = self.subbuckets
        payload["min_value"] = self.min_value
        return payload


class MetricsRegistry:
    """Registry of metric families; the single hand-out point.

    ``counter``/``gauge``/``loghistogram`` are idempotent:
    asking for an existing family name returns the existing family (after
    checking the kind and label names agree), so independently
    instrumented components can share series without coordination.

    Args:
        max_snapshots: Bound on retained time-series snapshots
            (:meth:`record_snapshot`); oldest rows drop past it.
    """

    def __init__(self, max_snapshots: int = DEFAULT_MAX_SNAPSHOTS) -> None:
        self._families: Dict[str, MetricFamily] = {}
        #: Periodic scalar snapshots, oldest first (bounded ring).
        self.snapshots: Deque[Dict[str, object]] = deque(maxlen=max_snapshots)
        #: Snapshot rows evicted by the ring bound so far.
        self.snapshots_dropped = 0

    def __len__(self) -> int:
        return len(self._families)

    def __iter__(self) -> Iterator[MetricFamily]:
        return iter(
            family for _, family in sorted(self._families.items())
        )

    def _get_or_register(
        self, cls: type, name: str, kwargs: Dict[str, object]
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, cannot re-register as {cls.kind}"  # type: ignore[attr-defined]
                )
            wanted = tuple(kwargs.get("labelnames", ()) or ())
            if wanted != existing.labelnames:
                raise ObservabilityError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.labelnames}, got {wanted}"
                )
            return existing
        family = cls(name, **kwargs)
        self._families[name] = family
        return family

    def counter(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> Counter:
        """Register (or fetch) a counter family."""
        family = self._get_or_register(
            Counter, name,
            {"help": help, "labelnames": labelnames,
             "max_series": max_series},
        )
        assert isinstance(family, Counter)
        return family

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> Gauge:
        """Register (or fetch) a gauge family."""
        family = self._get_or_register(
            Gauge, name,
            {"help": help, "labelnames": labelnames,
             "max_series": max_series},
        )
        assert isinstance(family, Gauge)
        return family

    def loghistogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        subbuckets: int = DEFAULT_SUBBUCKETS,
        min_value: float = DEFAULT_MIN_VALUE,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> LogHistogramFamily:
        """Register (or fetch) a mergeable log-bucketed histogram family."""
        family = self._get_or_register(
            LogHistogramFamily, name,
            {"help": help, "labelnames": labelnames,
             "subbuckets": subbuckets, "min_value": min_value,
             "max_series": max_series},
        )
        assert isinstance(family, LogHistogramFamily)
        return family

    def get(self, name: str) -> Optional[MetricFamily]:
        """Look a family up by name (None when absent)."""
        return self._families.get(name)

    # -- time-series snapshots --------------------------------------------

    def scalar_values(self) -> Dict[str, float]:
        """Every counter/gauge series as ``name{labels}`` -> value."""
        values: Dict[str, float] = {}
        for family in self:
            if family.kind not in ("counter", "gauge"):
                continue
            for key, state in family.series_items():
                series_id = f"{family.name}{_label_text(family.labels_of(key))}"
                values[series_id] = float(state)  # type: ignore[arg-type]
        return values

    def record_snapshot(
        self, sim_time: float, wall_time: Optional[float] = None
    ) -> Dict[str, object]:
        """Append one sim-time/wall-time row of all scalar series.

        The caller decides the cadence (an observed device snapshots on a
        simulated-time interval: ``Observability(snapshot_interval=...)``).
        Rows past the ``max_snapshots`` bound evict the oldest — a long
        soak keeps the most recent history, like the flight recorder's
        rings.
        """
        if len(self.snapshots) == self.snapshots.maxlen:
            self.snapshots_dropped += 1
        row: Dict[str, object] = {
            "sim_time": float(sim_time),
            "wall_time": float(wall_time) if wall_time is not None
            else perf_counter(),
            "values": self.scalar_values(),
        }
        self.snapshots.append(row)
        return row

    # -- merge & compact form ----------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's series into this one (returns self).

        Merge semantics by kind: counters **add**, log histograms **add
        bucket-wise** — bucket-exact equal to one pooled run — and gauges take the incoming run's value (they are
        point-in-time readings, not accumulations).  Snapshot rows are
        concatenated in time order.
        """
        for family in other:
            mine = self._families.get(family.name)
            if mine is None:
                mine = self._get_or_register(
                    type(family), family.name, family._params()
                )
            mine.merge_from(family)
        if other.snapshots:
            combined = sorted(
                list(self.snapshots) + list(other.snapshots),
                key=lambda row: row["sim_time"],  # type: ignore[arg-type, return-value]
            )
            self.snapshots.clear()
            self.snapshots.extend(combined)
        return self

    def to_compact(self) -> Dict[str, object]:
        """Lossless JSON-ready form of every family (the fleet wire format).

        Unlike :meth:`to_dict` (a human-oriented rendering with derived
        quantiles), this form round-trips through
        :meth:`from_compact` into an equal registry and is what a fleet
        orchestrator should ship from worker processes to an aggregator.
        """
        return {
            "schema": COMPACT_REGISTRY_SCHEMA,
            "families": [family.to_compact() for family in self],
            "snapshots": list(self.snapshots),
        }

    @classmethod
    def from_compact(cls, payload: Mapping[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from its :meth:`to_compact` form."""
        schema = payload.get("schema")
        if schema != COMPACT_REGISTRY_SCHEMA:
            raise ObservabilityError(
                f"not a compact metrics registry (schema {schema!r})"
            )
        kinds = {
            "counter": Counter,
            "gauge": Gauge,
            "loghistogram": LogHistogramFamily,
        }
        registry = cls()
        for family_payload in payload.get("families", ()):  # type: ignore[union-attr]
            kind = str(family_payload["kind"])
            if kind not in kinds:
                raise ObservabilityError(f"unknown metric kind {kind!r}")
            params: Dict[str, object] = {
                "help": family_payload.get("help", ""),
                "labelnames": tuple(family_payload.get("labelnames", ())),
                "max_series": family_payload.get(
                    "max_series", DEFAULT_MAX_SERIES),
            }
            if kind == "loghistogram":
                params["subbuckets"] = family_payload["subbuckets"]
                params["min_value"] = family_payload["min_value"]
            family = registry._get_or_register(
                kinds[kind], str(family_payload["name"]), params
            )
            family.load_compact_series(family_payload)
        for row in payload.get("snapshots", ()):  # type: ignore[union-attr]
            registry.snapshots.append(dict(row))
        return registry

    # -- renderers --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of every family and series."""
        document: Dict[str, object] = {
            "families": [family.as_dict() for family in self],
        }
        if self.snapshots:
            document["snapshots"] = list(self.snapshots)
        return document

    def render_json(self, indent: Optional[int] = None) -> str:
        """The :meth:`to_dict` snapshot as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def render_text(self) -> str:
        """Prometheus-exposition-style rendering of the whole registry."""
        return "\n".join(family.render_text() for family in self)

    def render_prometheus(self) -> str:
        """Strict Prometheus text exposition (format 0.0.4).

        Same content as :meth:`render_text` but guaranteed to end with a
        single trailing newline and to emit nothing for an empty registry
        — suitable for serving on a ``/metrics`` endpoint or writing to a
        node-exporter textfile.
        """
        body = self.render_text()
        return body + "\n" if body else ""
