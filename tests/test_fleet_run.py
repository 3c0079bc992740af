"""Fleet execution: determinism oracle, re-derivation, error containment."""

import json
import multiprocessing

import pytest

from repro.fleet.orchestrator import run_fleet
from repro.fleet.plan import FleetPlan, ScenarioMix
from repro.fleet.record import read_fleet_file
from repro.fleet.report import (
    aggregate_registry,
    build_report,
    render_report,
    triage_queue,
)
from repro.fleet.worker import classify_verdict, run_device, severity_of


def small_plan(**overrides):
    """A fleet plan sized for test speed (seconds, not minutes)."""
    defaults = dict(devices=6, seed=11, num_lbas=4_000, duration=10.0,
                    mix=ScenarioMix.parse(
                        "test-ransom-only,test-outlooksync-mole"))
    defaults.update(overrides)
    return FleetPlan(**defaults)


@pytest.fixture(scope="module")
def sequential_result():
    """One golden sequential run shared across the module's tests."""
    return run_fleet(small_plan(), shards=1)


class TestDeterminismOracle:
    def test_sharded_matches_sequential_bit_for_bit(self, tmp_path,
                                                    sequential_result):
        """The tentpole acceptance gate: the fleet file bytes and the
        merged metrics registry are identical for any shard count."""
        plan = small_plan()
        seq_path = tmp_path / "seq.fleetrec"
        shard_path = tmp_path / "shard.fleetrec"
        run_fleet(plan, shards=1, out_path=seq_path)
        sharded = run_fleet(plan, shards=3, out_path=shard_path)
        assert seq_path.read_bytes() == shard_path.read_bytes()
        assert sharded.records == sequential_result.records
        seq_metrics = aggregate_registry(sequential_result.records)
        shard_metrics = aggregate_registry(sharded.records)
        assert json.dumps(seq_metrics.to_compact(), sort_keys=True) == \
            json.dumps(shard_metrics.to_compact(), sort_keys=True)

    def test_records_come_back_in_index_order(self, sequential_result):
        indices = [r["index"] for r in sequential_result.records]
        assert indices == list(range(len(indices)))

    def test_fleet_file_round_trips_records(self, tmp_path,
                                            sequential_result):
        path = tmp_path / "fleet.fleetrec"
        run_fleet(small_plan(), shards=1, out_path=path)
        header, records = read_fleet_file(path)
        assert records == sequential_result.records
        assert FleetPlan.from_dict(header) == small_plan()

    def test_repeat_run_is_identical(self, sequential_result):
        """No hidden wall-clock or global state leaks into records."""
        again = run_fleet(small_plan(), shards=1)
        assert again.records == sequential_result.records


class TestPerDeviceRederivation:
    def test_single_device_rerun_matches_fleet_record(self,
                                                      sequential_result):
        """Any device can be re-derived from the fleet seed alone and
        re-run to the identical record — the triage repro contract."""
        plan = small_plan()
        target = sequential_result.records[3]
        spec = plan.find_device(str(target["device_id"]))
        record, incident = run_device(plan, spec)
        assert record == target
        assert incident is None

    def test_flight_rerun_takes_identical_decisions(self,
                                                    sequential_result):
        """Arming the flight recorder must not perturb the outcome."""
        plan = small_plan()
        target = sequential_result.records[0]
        spec = plan.device_spec(0)
        record, incident = run_device(plan, spec, flight=True)
        assert record == target
        assert incident is not None
        assert incident["schema"] == "ssd-insider.incident/v1"


class TestErrorContainment:
    def test_poisoned_device_yields_error_record(self):
        """An unknown scenario surfaces as a contained per-device error
        record — the fleet completes instead of raising."""
        plan = small_plan(
            devices=4, mix=ScenarioMix.parse("no-such-scenario"))
        result = run_fleet(plan, shards=1)
        assert len(result.records) == 4
        for record in result.records:
            assert record["verdict"] == "error"
            assert "no-such-scenario" in str(record["error"])
        assert result.summary.verdicts == {"error": 4}

    def test_error_records_rank_top_of_triage(self):
        plan = small_plan(
            devices=2, mix=ScenarioMix.parse("no-such-scenario"))
        result = run_fleet(plan, shards=1)
        queue = triage_queue(result.records)
        assert queue
        assert queue[0]["verdict"] == "error"
        assert queue[0]["severity"] == severity_of(result.records[0])

    def test_poisoned_device_contained_across_shards(self):
        """Containment holds in pool workers too: mixed good/poisoned
        fleets return every record."""
        plan = small_plan(
            devices=4,
            mix=ScenarioMix.parse("test-ransom-only,no-such-scenario"))
        sharded = run_fleet(plan, shards=2)
        sequential = run_fleet(plan, shards=1)
        assert sharded.records == sequential.records
        verdicts = {r["verdict"] for r in sharded.records}
        assert "error" in verdicts


class TestVerdicts:
    @pytest.mark.parametrize(
        "has_ransomware,alarm,error,expected", [
            (True, True, None, "true_alarm"),
            (True, False, None, "missed"),
            (False, True, None, "false_alarm"),
            (False, False, None, "clean"),
            (True, True, "boom", "error"),
        ])
    def test_classification(self, has_ransomware, alarm, error, expected):
        assert classify_verdict(has_ransomware, alarm, error) == expected

    def test_summary_counts_match_records(self, sequential_result):
        counted = {}
        for record in sequential_result.records:
            verdict = record["verdict"]
            counted[verdict] = counted.get(verdict, 0) + 1
        assert sequential_result.summary.verdicts == counted


class TestProgressCallback:
    """The ``run_fleet(progress=...)`` contract on both execution paths."""

    @staticmethod
    def _collect(plan, shards):
        calls = []
        result = run_fleet(
            plan, shards=shards,
            progress=lambda done, total, record: calls.append(
                (done, total, record)))
        return calls, result

    @pytest.mark.parametrize("shards", [1, 2])
    def test_fires_exactly_once_per_device_in_index_order(self, shards):
        plan = small_plan()
        calls, result = self._collect(plan, shards)
        assert len(calls) == plan.devices
        assert [done for done, _, _ in calls] == \
            list(range(1, plan.devices + 1))
        assert all(total == plan.devices for _, total, _ in calls)
        # The record stream is the index-ordered reorder-buffer output,
        # so callback N carries the record of device index N-1.
        assert [r["index"] for _, _, r in calls] == \
            list(range(plan.devices))
        assert [r for _, _, r in calls] == result.records

    @pytest.mark.parametrize("shards", [1, 2])
    def test_poisoned_devices_still_progress(self, shards):
        """Error records flow through the callback like any other —
        a poisoned fleet reports every device exactly once."""
        plan = small_plan(
            devices=4,
            mix=ScenarioMix.parse("test-ransom-only,no-such-scenario"))
        calls, result = self._collect(plan, shards)
        assert len(calls) == 4
        assert [r["index"] for _, _, r in calls] == [0, 1, 2, 3]
        verdicts = [r["verdict"] for _, _, r in calls]
        assert "error" in verdicts
        assert [r for _, _, r in calls] == result.records

    def test_callback_absence_changes_nothing(self, sequential_result):
        calls, result = self._collect(small_plan(), 1)
        assert result.records == sequential_result.records

    def test_never_more_workers_than_devices(self, tmp_path):
        """Four shards for two devices start two workers, and the fleet
        file is the in-process run's byte for byte."""
        plan = small_plan(devices=2)
        children = []
        sharded = run_fleet(
            plan, shards=4, out_path=tmp_path / "sharded.fleetrec",
            progress=lambda done, total, record: children.append(
                len(multiprocessing.active_children())))
        run_fleet(plan, shards=1, out_path=tmp_path / "seq.fleetrec")
        assert len(children) == 2
        assert max(children) <= 2
        assert sharded.summary.shards == 2
        assert (tmp_path / "sharded.fleetrec").read_bytes() == \
            (tmp_path / "seq.fleetrec").read_bytes()


class TestFleetReport:
    def test_report_population_numbers(self, sequential_result):
        plan = small_plan()
        report = build_report(plan.to_dict(), sequential_result.records)
        population = report["population"]
        assert population["devices"] == plan.devices
        assert population["benign_runs"] + population["ransomware_runs"] \
            == plan.devices
        rendered = render_report(report)
        assert "population FAR" in rendered
        assert "triage queue" in rendered

    def test_report_rebuilds_from_file_alone(self, tmp_path,
                                             sequential_result):
        """Reports derive entirely from the binary file — no side state."""
        path = tmp_path / "fleet.fleetrec"
        run_fleet(small_plan(), shards=1, out_path=path)
        header, records = read_fleet_file(path)
        from_file = build_report(header, records)
        in_memory = build_report(small_plan().to_dict(),
                                 sequential_result.records)
        assert json.dumps(from_file, sort_keys=True) == \
            json.dumps(in_memory, sort_keys=True)
