"""The flight recorder: bounded memory and incident bundles.

That arming it perturbs nothing is part of the observability inertness
matrix in ``tests/test_obs_inertness.py``.
"""

import json

import pytest

from repro.blockdev.request import IOMode, IORequest
from repro.core.features import FEATURE_NAMES
from repro.errors import ConfigError
from repro.obs import Observability
from repro.obs.flightrec import (
    BUDGET_SHARES,
    EVENT_ENTRY_BYTES,
    QUEUE_SAMPLE_BYTES,
    REQUEST_ENTRY_BYTES,
    SLICE_ENTRY_BYTES,
    FlightRecorder,
    INCIDENT_SCHEMA,
)
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD
from repro.ssd.harness import run_defense


def golden_device(flight=None) -> SimulatedSSD:
    obs = Observability.on(flight=flight) if flight is not None else None
    return SimulatedSSD(SSDConfig.small(), obs=obs)


class TestBoundedMemory:
    def test_memory_is_o_capacity_regardless_of_run_length(self):
        """Acceptance: the rings never outgrow the byte budget's shares."""
        budget = 8 * 1024
        recorder = FlightRecorder(budget_bytes=budget,
                                  queue_sample_interval=0.0)
        ceiling = (
            recorder.request_capacity * REQUEST_ENTRY_BYTES
            + recorder.attribution.capacity * SLICE_ENTRY_BYTES
            + recorder.queue_sample_capacity * QUEUE_SAMPLE_BYTES
            + recorder.event_capacity * EVENT_ENTRY_BYTES
        )
        for step in range(20_000):
            t = step * 0.01
            mode = IOMode.READ if step % 3 else IOMode.WRITE
            recorder.record_request(
                IORequest(time=t, lba=step % 512, mode=mode)
            )
            recorder.sample_queue(t, depth=step % 100, pinned=step % 50)
            if step % 7 == 0:
                recorder.record_event("gc", t, erased=1)
        assert recorder.memory_bytes() <= ceiling
        assert len(recorder.requests) == recorder.request_capacity
        assert recorder.requests_recorded == 20_000
        assert recorder.events_recorded > recorder.event_capacity
        assert len(recorder.events) == recorder.event_capacity

    def test_capacities_derive_from_budget_shares(self):
        recorder = FlightRecorder(budget_bytes=256 * 1024)
        capacities = recorder.capacities()
        assert capacities["requests"] == int(
            256 * 1024 * BUDGET_SHARES["requests"]) // REQUEST_ENTRY_BYTES
        assert capacities["slices"] == int(
            256 * 1024 * BUDGET_SHARES["slices"]) // SLICE_ENTRY_BYTES

    def test_queue_sampling_is_throttled(self):
        recorder = FlightRecorder(queue_sample_interval=1.0)
        for step in range(100):
            recorder.sample_queue(step * 0.1, depth=step, pinned=0)
        # 10 samples/second offered, 1/second kept.
        assert recorder.queue_samples_recorded <= 11


class TestIncidentBundle:
    @pytest.fixture(scope="class")
    def outcome(self):
        flight = FlightRecorder()
        device = golden_device(flight)
        return run_defense(device, sample="wannacry", seed=1), flight, device

    def test_alarm_cuts_a_self_contained_bundle(self, outcome):
        result, flight, device = outcome
        assert result.alarm_raised
        (bundle,) = result.incidents
        assert bundle["schema"] == INCIDENT_SCHEMA
        assert bundle["trigger"]["reason"] == "alarm"
        json.dumps(bundle)  # self-contained = serialisable as-is

    def test_alarming_slice_has_full_path_and_features(self, outcome):
        """Acceptance: root-to-leaf path + six features for the alarm."""
        result, flight, device = outcome
        (bundle,) = result.incidents
        slices = bundle["attribution"]["slices"]
        alarming = [entry for entry in slices if entry["alarm"]]
        assert alarming
        entry = alarming[-1]
        assert set(entry["features"]) == set(FEATURE_NAMES)
        path = entry["path"]
        assert path["label"] == 1
        assert path["steps"], "root-to-leaf path must not be empty"
        for step in path["steps"]:
            assert {"node_id", "feature", "feature_name", "threshold",
                    "value", "branch"} <= set(step)
        assert entry["margins"]

    def test_trigger_time_is_the_detection_event_time(self, outcome):
        """Acceptance: time-to-detect derives from DetectionEvent.time."""
        result, flight, device = outcome
        (bundle,) = result.incidents
        trigger = bundle["trigger"]
        onset = bundle["context"]["attack_onset"]
        # The harness measured latency against the wall clock at alarm;
        # the bundle's trigger time is the alarming DetectionEvent's own
        # timestamp (the slice boundary), recorded exactly.
        alarming = [entry for entry in bundle["attribution"]["slices"]
                    if entry["alarm"]]
        assert trigger["sim_time"] == alarming[-1]["time"]
        assert trigger["sim_time"] - onset > 0

    def test_bundle_has_request_window_and_queue_occupancy(self, outcome):
        result, flight, device = outcome
        (bundle,) = result.incidents
        assert bundle["requests"], "request window must be captured"
        for request in bundle["requests"][:5]:
            assert {"time", "lba", "length", "mode", "source"} <= set(request)
        assert bundle["queue_samples"]
        assert bundle["recovery_queue"]["depth"] >= 0

    def test_rollback_annotates_the_incident(self, outcome):
        result, flight, device = outcome
        (bundle,) = result.incidents
        rollback = bundle["rollback"]
        at_rollback = rollback["queue_at_rollback"]
        assert at_rollback["depth"] > 0
        assert at_rollback["capacity"] is not None
        assert (at_rollback["headroom"]
                == at_rollback["capacity"] - at_rollback["depth"])
        assert rollback["entries_applied"] == result.rollback.entries_applied

    def test_detector_and_device_sections_present(self, outcome):
        result, flight, device = outcome
        (bundle,) = result.incidents
        assert bundle["detector"]["config"]["threshold"] == 3
        assert bundle["detector"]["window"]
        assert bundle["device"]["read_only"] is True


class TestManualSnapshot:
    def test_snapshot_on_demand(self):
        flight = FlightRecorder()
        device = golden_device(flight)
        device.write(7, b"x" * 8, now=0.25)
        bundle = device.snapshot_incident("spot_check")
        assert bundle["trigger"]["reason"] == "spot_check"
        assert device.incidents == [bundle]

    def test_requires_an_armed_recorder(self):
        device = golden_device()
        with pytest.raises(ConfigError):
            device.snapshot_incident()

    def test_media_alarm_cuts_a_bundle(self):
        flight = FlightRecorder()
        device = golden_device(flight)
        device._media_degrade("uncorrectable_read", lockdown=False, lba=3)
        (bundle,) = device.incidents
        assert bundle["trigger"]["reason"] == "media_alarm"
        assert bundle["trigger"]["lockdown"] is False
        assert any(event["kind"] == "media_alarm"
                   for event in bundle["events"])
