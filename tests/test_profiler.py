"""Layer-attributed profiler: accounting, safety, and the do-no-harm gate.

The profiler exists to make the device-path bottleneck legible, so its
hard obligations are tested here: (1) arming it must not change a single
detection event, rollback report or statistics counter on the golden
scenario, (2) disarming must put every boundary function back, (3) the
boundary table must resolve and never nest a layer inside itself, and
(4) its own accounting must be self-consistent — child inclusive time
nested inside the parent, exclusive times that partition the root, exact
call counts, and a report that states its measured cost.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import LayerProfiler
from repro.obs.prof import (
    DEVICE_PATH_PREFIXES,
    LAYERS,
    PROFILE_SCHEMA,
    build_report,
    resolve,
)
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD
from repro.tools.profile import (
    COVERAGE_FLOOR,
    GOLDEN_SEED,
    golden_scenario,
    profile_device_replay,
)


def _golden_run(duration=8.0, seed=GOLDEN_SEED):
    return golden_scenario(duration=duration).build(seed=seed,
                                                    duration=duration)


class TestCallTreeAccounting:
    def test_inclusive_exclusive_partition(self):
        prof = LayerProfiler()
        with prof.section("outer"):
            for _ in range(3):
                with prof.section("inner"):
                    pass
        outer = prof.root.children["outer"]
        inner = outer.children["inner"]
        assert outer.calls == 1
        assert inner.calls == 3
        # Child inclusive time nests inside the parent's.
        assert inner.total_ns <= outer.total_ns
        assert outer.exclusive_ns() == outer.total_ns - inner.total_ns
        assert outer.exclusive_ns() >= 0

    def test_reentrant_sections_keep_distinct_tree_paths(self):
        prof = LayerProfiler()
        with prof.section("a"):
            with prof.section("b"):
                with prof.section("a"):
                    pass
        top = prof.root.children["a"]
        nested = top.children["b"].children["a"]
        assert top.calls == 1
        assert nested.calls == 1
        # layers() folds both tree paths into one aggregate row.
        assert prof.layers()["a"]["calls"] == 2

    def test_attributed_seconds_sums_root_children(self):
        prof = LayerProfiler()
        with prof.section("x"):
            pass
        with prof.section("y"):
            pass
        expected = sum(c.total_ns for c in prof.root.children.values()) / 1e9
        assert prof.attributed_seconds() == pytest.approx(expected)

    def test_unbalanced_stop_raises(self):
        prof = LayerProfiler()
        with pytest.raises(ObservabilityError):
            prof.stop()

    def test_section_guard_closes_on_exception(self):
        prof = LayerProfiler()
        with pytest.raises(RuntimeError):
            with prof.section("failing"):
                raise RuntimeError("boom")
        assert prof.depth == 0
        assert prof.root.children["failing"].calls == 1


class TestBuildReport:
    def _report(self):
        prof = LayerProfiler()
        with prof.section("replay"):
            with prof.section("ssd.write"):
                with prof.section("ftl.write"):
                    pass
            with prof.section("detector.observe"):
                pass
        return build_report(prof, wall_time_s=1.0, context={"scenario": "t"})

    def test_schema_and_required_fields(self):
        report = self._report()
        assert report["schema"] == PROFILE_SCHEMA
        for key in ("context", "wall_time_s", "coverage", "layers",
                    "device_path", "tree", "overhead"):
            assert key in report, key
        assert report["context"]["scenario"] == "t"
        coverage = report["coverage"]
        assert coverage["attributed_s"] >= 0
        assert 0 <= coverage["fraction_of_wall"] <= 1.01

    def test_device_path_filters_by_prefix(self):
        report = self._report()
        names = [row["layer"] for row in report["layers"]]
        for layer_name in report["device_path"]["top_layers"]:
            assert layer_name.startswith(DEVICE_PATH_PREFIXES)
        assert "detector.observe" in names  # reported, but not device-path

    def test_overhead_is_quantified(self):
        # Without an unarmed run there is nothing to compare against.
        assert self._report()["overhead"] is None
        prof = LayerProfiler()
        with prof.section("replay"):
            pass
        overhead = build_report(prof, wall_time_s=1.5,
                                unarmed_wall_s=1.0)["overhead"]
        assert overhead["unarmed_wall_s"] == 1.0
        assert overhead["fraction_of_wall"] == pytest.approx(0.5)

    def test_open_sections_rejected(self):
        prof = LayerProfiler()
        prof.start("replay")
        with pytest.raises(ObservabilityError):
            build_report(prof, wall_time_s=1.0)

    def test_report_is_json_serialisable(self):
        json.dumps(self._report())


def _replay(run, recover=False):
    """Replay ``run`` on a fresh small device.

    Returns the device, the requests submitted and the lengths of the
    write requests the FTL executed (those the read-only lockdown did not
    drop), in order.
    """
    device = SimulatedSSD(SSDConfig.small())
    num_lbas = device.num_lbas
    submitted = 0
    write_spans = []
    for request in run.trace:
        lba = request.lba % max(1, num_lbas - request.length)
        dropped = device.stats.dropped_writes
        device.submit(dataclasses.replace(request, lba=lba))
        submitted += 1
        if request.is_write and device.stats.dropped_writes == dropped:
            write_spans.append(request.length)
        if device.read_only:
            if recover:
                device.recover()
            else:
                device.dismiss_alarm()
    device.tick(run.duration)
    return device, submitted, write_spans


def _tree_paths(node, path=()):
    """Yield every root-to-node chain of layer names in a report tree."""
    for child in node["children"]:
        chain = path + (child["name"],)
        yield chain
        yield from _tree_paths(child, chain)


@pytest.fixture(scope="module")
def golden_armed():
    """One armed golden replay: (profiler, device, requests submitted,
    lengths of the write requests executed).

    12 simulated seconds: long enough for GC erases and two rollbacks.
    """
    run = _golden_run(duration=12.0)
    with LayerProfiler() as prof:
        device, submitted, write_spans = _replay(run, recover=True)
    return prof, device, submitted, write_spans


class TestBoundaryTable:
    def test_every_entry_resolves(self):
        """A renamed or deleted layer function fails here, instead of
        silently dropping its layer from every profile."""
        for layer, module_name, qualname in LAYERS:
            owner, attribute, function = resolve(module_name, qualname)
            assert function.__name__ == attribute, layer

    def test_unknown_entry_rejected(self):
        with pytest.raises(ObservabilityError):
            resolve("repro.ssd.device", "SimulatedSSD.no_such_method")
        with pytest.raises(ObservabilityError):
            resolve("repro.ssd.device", "NoSuchClass.submit")

    def test_exit_restores_every_original(self):
        originals = [resolve(module_name, qualname)
                     for _, module_name, qualname in LAYERS]
        with LayerProfiler() as prof:
            assert prof.armed
            for owner, attribute, function in originals:
                assert vars(owner)[attribute] is not function
        assert not prof.armed
        for owner, attribute, function in originals:
            assert vars(owner)[attribute] is function

    def test_exit_restores_after_a_raising_replay(self):
        originals = [resolve(module_name, qualname)
                     for _, module_name, qualname in LAYERS]
        device = SimulatedSSD(SSDConfig.small())
        with pytest.raises(ObservabilityError):
            with LayerProfiler() as prof:
                device.write(0, now=0.0)
                raise ObservabilityError("replay failed")
        assert prof.root.children["ssd.write"].calls == 1
        for owner, attribute, function in originals:
            assert vars(owner)[attribute] is function

    def test_arming_twice_rejected(self):
        prof = LayerProfiler()
        with prof:
            with pytest.raises(ObservabilityError):
                prof.__enter__()
        assert not prof.armed

    def test_no_layer_nested_under_itself(self, golden_armed):
        """Keeps the inclusive sums of layers() free of double counting."""
        prof, _, _, _ = golden_armed
        for chain in _tree_paths(prof.root.as_dict()):
            assert len(set(chain)) == len(chain), chain


class TestExactCounts:
    def test_golden_counts_match_device_state(self, golden_armed):
        prof, device, submitted, write_spans = golden_armed
        layers = prof.layers()
        assert device.ftl.stats.erases > 0
        assert layers["detector.observe"]["calls"] == submitted
        assert layers["ssd.submit"]["calls"] == submitted
        assert layers["nand.erase"]["calls"] == device.ftl.stats.erases
        assert layers["ftl.rollback"]["calls"] == len(device.rollback_reports)
        # One FTL write call per executed write request, whatever its
        # length: the span is the unit of ftl.write.
        assert layers["ftl.write"]["calls"] == len(write_spans)

    def test_golden_host_writes_count_every_block(self, golden_armed):
        _, device, _, write_spans = golden_armed
        # No program fails on a healthy device, so every block of every
        # executed write request is one host write.
        assert device.ftl.stats.host_writes == sum(write_spans)
        assert device.stats.writes == sum(write_spans)

    def test_two_armed_replays_count_identically(self, golden_armed):
        first, _, _, _ = golden_armed
        with LayerProfiler() as second:
            _replay(_golden_run(duration=12.0), recover=True)
        calls = lambda prof: {name: stats["calls"]
                              for name, stats in prof.layers().items()}
        assert calls(first) == calls(second)


class TestDoNoHarm:
    """Arming the profiler must be invisible to device behaviour."""

    def test_detection_event_stream_bit_identical(self, golden_armed):
        """Acceptance: profiler-armed run == plain run, event for event,
        rollback for rollback, counter for counter."""
        _, armed, _, _ = golden_armed
        plain, _, _ = _replay(_golden_run(duration=12.0), recover=True)
        assert armed.rollback_reports, "golden replay must roll back"
        assert plain.detector.events == armed.detector.events
        assert plain.detector.alarm_event == armed.detector.alarm_event
        assert plain.rollback_reports == armed.rollback_reports
        assert plain.ftl.stats == armed.ftl.stats
        assert plain.stats == armed.stats


class TestGoldenCoverage:
    def test_golden_replay_attributes_most_of_wall(self):
        """Acceptance: per-layer exclusive times cover >=95% of wall and
        the report names the top device-path layers."""
        run = _golden_run(duration=8.0)
        report = profile_device_replay(run)
        assert report["schema"] == PROFILE_SCHEMA
        assert report["coverage"]["fraction_of_wall"] >= COVERAGE_FLOOR
        top = report["device_path"]["top_layers"]
        assert top, "device-path breakdown must not be empty"
        for layer_name in top:
            assert layer_name.startswith(DEVICE_PATH_PREFIXES)
        # Per-layer exclusive sums partition the attributed wall time
        # (rows are rounded to the microsecond in the report).
        excl_total = sum(row["exclusive_s"] for row in report["layers"])
        assert excl_total == pytest.approx(
            report["coverage"]["attributed_s"], abs=1e-3
        )
        # The report carries the simulated NAND-time complement.
        assert report["context"]["nand_busy"]["total_s"] > 0
