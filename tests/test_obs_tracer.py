"""The event tracer: spans, instants, counters, and the Chrome export."""

import io
import json

from repro.clock import SimClock
from repro.obs import NULL_TRACER, Observability
from repro.obs.tracer import EventTracer, TraceEvent


class TestSpans:
    def test_span_records_wall_duration(self):
        tracer = EventTracer()
        with tracer.span("work", category="io"):
            pass
        (event,) = tracer.events
        assert event.name == "work"
        assert event.phase == "X"
        assert event.wall_dur_us >= 0
        assert event.wall_duration_s == event.wall_dur_us / 1e6

    def test_span_attributes_via_set(self):
        tracer = EventTracer()
        with tracer.span("gc", category="gc", block=3) as span:
            span.set("copies", 7)
        (event,) = tracer.events
        assert event.args == {"block": 3, "copies": 7}

    def test_nested_spans_both_recorded(self):
        tracer = EventTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        # Inner exits first, so it is recorded first.
        assert [e.name for e in tracer.events] == ["inner", "outer"]
        inner, outer = tracer.events
        assert outer.wall_ts_us <= inner.wall_ts_us
        assert outer.wall_ts_us + outer.wall_dur_us >= (
            inner.wall_ts_us + inner.wall_dur_us
        )

    def test_span_records_sim_clock(self):
        clock = SimClock()
        clock.advance_to(5.0)
        tracer = EventTracer(clock=clock)
        with tracer.span("tick"):
            clock.advance_to(7.5)
        (event,) = tracer.events
        assert event.sim_ts == 5.0
        assert event.sim_dur == 2.5

    def test_span_recorded_even_when_body_raises(self):
        tracer = EventTracer()
        try:
            with tracer.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        assert [e.name for e in tracer.events] == ["boom"]


class TestInstantsAndCounters:
    def test_instant_carries_args_and_sim_override(self):
        tracer = EventTracer()
        tracer.instant("alarm", category="detector", sim_time=12.5, score=3)
        (event,) = tracer.events
        assert event.phase == "i"
        assert event.sim_ts == 12.5
        assert event.args == {"score": 3}

    def test_counter_sample(self):
        tracer = EventTracer()
        tracer.counter("depth", 42, category="queue")
        (event,) = tracer.events
        assert event.phase == "C"
        assert event.args == {"value": 42}

    def test_max_events_cap_counts_drops(self):
        tracer = EventTracer(max_events=2)
        for i in range(5):
            tracer.instant(f"e{i}")
        assert len(tracer.events) == 2
        assert tracer.dropped == 3

    def test_find_filters_by_name(self):
        tracer = EventTracer()
        tracer.instant("a")
        tracer.instant("b")
        tracer.instant("a")
        assert len(tracer.find("a")) == 2
        assert tracer.find("missing") == []


class TestNullTracer:
    def test_null_tracer_records_nothing(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("work", category="io") as span:
            span.set("k", 1)
        NULL_TRACER.instant("x", score=1)
        NULL_TRACER.counter("depth", 3)
        assert not hasattr(NULL_TRACER, "events")

    def test_null_span_is_shared(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


class TestChromeExport:
    def test_document_shape(self):
        tracer = EventTracer(clock=SimClock())
        with tracer.span("req", category="io", mode="W"):
            pass
        tracer.instant("alarm", category="detector")
        tracer.counter("depth", 9, category="queue")
        document = tracer.to_chrome_trace()
        assert set(document) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = document["traceEvents"]
        assert len(events) == 3
        for event in events:
            assert {"name", "cat", "ph", "ts", "pid", "tid", "args"} <= set(
                event
            )
        span, instant, counter = events
        assert span["ph"] == "X" and "dur" in span
        assert instant["ph"] == "i" and instant["s"] == "t"
        assert counter["ph"] == "C"

    def test_sim_time_in_args_but_not_on_counters(self):
        clock = SimClock()
        clock.advance_to(3.0)
        tracer = EventTracer(clock=clock)
        tracer.instant("x")
        tracer.counter("depth", 1)
        instant, counter = tracer.to_chrome_trace()["traceEvents"]
        assert instant["args"]["sim_time_s"] == 3.0
        # A counter's args are its graphed series; sim time stays out.
        assert counter["args"] == {"value": 1}

    def test_write_chrome_trace_to_path(self, tmp_path):
        tracer = EventTracer()
        tracer.instant("x")
        out = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(out))
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["traceEvents"][0]["name"] == "x"

    def test_write_chrome_trace_to_file_object(self):
        tracer = EventTracer()
        tracer.instant("x")
        buffer = io.StringIO()
        tracer.write_chrome_trace(buffer)
        assert json.loads(buffer.getvalue())["otherData"]["events"] == 1

    def test_event_json_serializable_with_numeric_args(self):
        event = TraceEvent(
            name="e", category="c", phase="i", wall_ts_us=1.0,
            sim_ts=0.5, args={"score": 2, "verdict": "benign"},
        )
        encoded = json.loads(json.dumps(event.to_chrome()))
        assert encoded["args"]["sim_time_s"] == 0.5
        assert encoded["args"]["verdict"] == "benign"


class TestObservabilityHub:
    def test_off_is_disabled_and_null(self):
        obs = Observability()
        assert obs.tracer is NULL_TRACER
        assert obs.metrics is None and obs.flightrec is None
        # Nothing armed: the recovery queue gets no per-entry callback.
        assert obs.queue_note(object()) is None

    def test_on_enables_both_halves(self):
        obs = Observability.on()
        assert obs.tracer.enabled is True
        assert obs.queue_note(object()) is not None
        obs.metrics.counter("x_total").inc()
        assert obs.metrics.get("x_total") is not None

    def test_bind_clock_reaches_tracer(self):
        obs = Observability.on()
        clock = SimClock()
        clock.advance_to(2.0)
        obs.bind_clock(clock)
        obs.tracer.instant("x")
        assert obs.tracer.events[0].sim_ts == 2.0


class TestRingMode:
    def test_drop_oldest_keeps_most_recent(self):
        tracer = EventTracer(max_events=3, drop_oldest=True)
        for i in range(7):
            tracer.instant(f"e{i}")
        assert [e.name for e in tracer.events] == ["e4", "e5", "e6"]
        assert tracer.dropped == 4

    def test_default_cap_still_drops_newest(self):
        tracer = EventTracer(max_events=3)
        for i in range(7):
            tracer.instant(f"e{i}")
        assert [e.name for e in tracer.events] == ["e0", "e1", "e2"]
        assert tracer.dropped == 4

    def test_dropped_counter_reported_in_export(self):
        tracer = EventTracer(max_events=1, drop_oldest=True)
        tracer.instant("a")
        tracer.instant("b")
        assert tracer.to_chrome_trace()["otherData"]["dropped"] == 1

    def test_ring_mode_records_spans_and_counters_too(self):
        tracer = EventTracer(max_events=2, drop_oldest=True)
        with tracer.span("s"):
            pass
        tracer.counter("c", 1.0)
        tracer.instant("i")
        assert [e.name for e in tracer.events] == ["c", "i"]


class TestFindIndex:
    def test_find_matches_full_scan(self):
        """Satellite micro-test: the name index IS the full scan."""
        tracer = EventTracer()
        for i in range(50):
            tracer.instant(f"name{i % 5}", value=i)
        for name in [f"name{k}" for k in range(5)] + ["missing"]:
            assert tracer.find(name) == [
                event for event in tracer.events if event.name == name
            ]

    def test_find_matches_full_scan_after_ring_evictions(self):
        tracer = EventTracer(max_events=7, drop_oldest=True)
        for i in range(40):
            tracer.instant(f"name{i % 3}", value=i)
        for name in ("name0", "name1", "name2", "gone"):
            assert tracer.find(name) == [
                event for event in tracer.events if event.name == name
            ]

    def test_find_after_drop_newest_cap(self):
        tracer = EventTracer(max_events=4)
        for i in range(10):
            tracer.instant(f"name{i % 2}")
        for name in ("name0", "name1"):
            assert tracer.find(name) == [
                event for event in tracer.events if event.name == name
            ]
