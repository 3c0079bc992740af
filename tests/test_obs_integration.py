"""End-to-end observability: an instrumented defense run leaves a trace."""

import json

import pytest

from repro.nand.geometry import NandGeometry
from repro.obs import Observability
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD
from repro.ssd.harness import run_defense
from repro.ssd.smart import smart_report

FEATURE_KEYS = {"owio", "owst", "pwio", "avgwio", "owslope", "io"}


class TestInstrumentedDefense:
    @pytest.fixture(scope="class")
    def outcome(self, pretrained_tree):
        device = SimulatedSSD(
            SSDConfig(
                geometry=NandGeometry(channels=2, ways=4, blocks_per_chip=128,
                                      pages_per_block=64),
                queue_capacity=20_000,
            ),
            tree=pretrained_tree,
            obs=Observability.on(),
        )
        return run_defense(device, sample="wannacry", user_blocks=15_000,
                           seed=3)

    def test_outcome_carries_the_bundle(self, outcome):
        assert outcome.obs is not None
        assert outcome.obs.tracer.enabled
        assert outcome.obs.metrics is not None

    def test_detector_slices_carry_all_six_features(self, outcome):
        slices = outcome.obs.tracer.find("detector.slice")
        assert slices, "no detector slice events recorded"
        for event in slices:
            assert FEATURE_KEYS <= set(event.args)
            assert event.args["verdict"] in (0, 1)  # raw tree output

    def test_rollback_span_after_slices_in_clock_order(self, outcome):
        slices = outcome.obs.tracer.find("detector.slice")
        sim_times = [e.sim_ts for e in slices]
        assert sim_times == sorted(sim_times)
        (rollback,) = outcome.obs.tracer.find("ssd.rollback")
        assert rollback.phase == "X"
        assert rollback.args["entries_applied"] > 0
        # The rollback happens after every detector slice, on both clocks.
        assert rollback.sim_ts >= sim_times[-1]
        last_slice = slices[-1]
        assert rollback.wall_ts_us >= last_slice.wall_ts_us

    def test_alarm_and_lockdown_instants(self, outcome):
        assert outcome.obs.tracer.find("detector.alarm")
        assert outcome.obs.tracer.find("ssd.lockdown")

    def test_per_request_spans_by_mode(self, outcome):
        spans = outcome.obs.tracer.find("ssd.request")
        modes = {event.args["mode"] for event in spans}
        assert "W" in modes

    def test_metrics_cover_the_acceptance_list(self, outcome):
        registry = outcome.obs.metrics
        assert registry.get("recovery_queue_depth") is not None
        wa = registry.get("ftl_write_amplification")
        assert wa is not None and wa.value() >= 1.0
        latency = registry.get("ssd_request_latency_seconds")
        assert latency.count(mode="W") > 0

    def test_chrome_export_is_valid_json(self, outcome, tmp_path):
        out = tmp_path / "defense_trace.json"
        outcome.obs.tracer.write_chrome_trace(str(out))
        document = json.loads(out.read_text(encoding="utf-8"))
        names = {event["name"] for event in document["traceEvents"]}
        assert {"ssd.request", "detector.slice", "ssd.rollback"} <= names

    def test_smart_report_metrics_section(self, outcome, pretrained_tree):
        device = SimulatedSSD(
            SSDConfig(
                geometry=NandGeometry(channels=1, ways=2, blocks_per_chip=64,
                                      pages_per_block=32),
            ),
            tree=pretrained_tree,
            obs=Observability.on(),
        )
        device.write(0, b"x", now=0.1)
        plain = smart_report(device)
        assert all(isinstance(key, int) for key in plain)
        rich = smart_report(device, metrics=True)
        assert "metrics" in rich


class TestGcInstrumentation:
    def test_write_pressure_produces_gc_spans_and_copy_counters(self):
        # Tiny array + repeated overwrites so garbage collection must run.
        device = SimulatedSSD(
            SSDConfig(
                geometry=NandGeometry(channels=1, ways=1, blocks_per_chip=32,
                                      pages_per_block=16),
                detector_enabled=False,
            ),
            obs=Observability.on(),
        )
        lbas = device.num_lbas // 2
        now = 0.0
        for round_index in range(6):
            for lba in range(lbas):
                now += 0.001
                device.write(lba, bytes([round_index]), now=now)
        spans = device.obs.tracer.find("ftl.gc")
        assert spans, "no GC ran despite sustained overwrite pressure"
        assert any(event.args.get("erased", 0) > 0 for event in spans)
        copies = device.obs.metrics.get("ftl_gc_page_copies_total")
        assert copies is not None
        assert copies.value(kind="valid") == device.ftl.stats.gc_page_copies \
            - device.ftl.stats.gc_pinned_copies
        victims = device.obs.tracer.find("ftl.gc_victim")
        assert victims and all("block" in event.args for event in victims)
