"""perfbench's own checks, on test-sized (``--smoke``) inputs.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import multiprocessing
import subprocess
import sys
from multiprocessing import resource_tracker

import pytest

from perfbench import ROOT
from perfbench.compare import compare, verdict
from perfbench.metrics import BY_NAME, END_TO_END, LISTED, per_layer
from perfbench.run import run_workload, stop_helper_processes, summary_line
from perfbench.trace import BOUNDARIES, LayerTracer, _resolve
from perfbench.workloads import WORKLOADS, GoldenAttack

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = 0.2


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.listed_bound}
        for m in LISTED
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in per_layer()
    ]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_printed_metrics_match_benchmark_json(name):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         name, "--smoke", "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert [(key, value["unit"]) for key, value in result["metrics"].items()] \
        == [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0


def test_no_process_outlives_a_fleet_run():
    record = run_workload("fleet_testing", seconds=SECONDS, smoke=True)
    assert record["correct"]
    stop_helper_processes()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def _class_state():
    owners = {}
    for _, module, qualname in BOUNDARIES:
        owner, attribute, original = _resolve(module, qualname)
        owners.setdefault(owner, {})[attribute] = original
    return owners


def test_traced_run_reports_every_layer_metric_and_restores_attributes():
    before = _class_state()
    snapshot = {owner: dict(vars(owner)) for owner in before
                if isinstance(owner, type)}
    record = run_workload("golden_attack", seconds=SECONDS, traced=True,
                          smoke=True)
    result = json.loads(summary_line(record))
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert result["correct"], record["replays"]
    assert record["missing_layers"] == []
    assert record["metrics"]["trace.coverage_pct"]["value"] >= 95.0
    assert record["metrics"]["ssd.recover.calls"]["value"] > 0
    assert _class_state() == before
    for owner, attributes in snapshot.items():
        assert set(vars(owner)) == set(attributes)
        for key, value in attributes.items():
            assert vars(owner)[key] is value, (owner, key)


def test_missing_boundary_is_reported_not_fatal():
    tracer = LayerTracer(BOUNDARIES[:2] + (
        ("gone.method", "repro.ssd.device", "NoSuchClass.method"),
        ("gone.module", "repro.no_such_module", "function"),
    ))
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["gone.method", "gone.module"]


def test_fingerprint_mismatch_counts_as_failed():
    record = run_workload("golden_attack", seconds=SECONDS, smoke=True,
                          expected={"not": "the replay's fingerprint"})
    assert not record["correct"]
    assert record["failed"] == record["attempted"] > 0
    assert record["metrics"]["failed_fraction"]["value"] == 1.0


def test_seed_changes_the_trace_but_not_the_metric_set():
    first, second = GoldenAttack(seed=1, smoke=True), GoldenAttack(seed=2, smoke=True)
    first.setup()
    second.setup()
    assert first.requests != second.requests
    runs = [run_workload("golden_attack", seed=seed, seconds=SECONDS, smoke=True)
            for seed in (1, 2)]
    assert all(run["correct"] for run in runs)
    assert list(runs[0]["metrics"]) == list(runs[1]["metrics"])
    assert runs[0]["fingerprint"] != runs[1]["fingerprint"]


def test_compare_verdicts():
    rate = BY_NAME["requests_per_s"]
    parent = [100.0, 101.0, 99.0, 100.0, 100.5]
    assert verdict(rate, parent, [120.0, 121.0, 119.0, 120.0, 122.0]) == "improved"
    assert verdict(rate, parent, [70.0, 71.0, 69.0, 70.0, 70.5]) == "regressed"
    assert verdict(rate, parent, [85.0, 86.0, 84.0, 85.0, 85.5]) == "regressed"
    assert verdict(rate, parent, [101.0, 99.0, 100.0, 100.0, 101.0]) == "no change"
    assert verdict(rate, [60.0, 100.0, 140.0, 100.0, 70.0], parent) == "unresolved"


def _write_runs(directory, workload, rates, failed=()):
    """Run records of ``workload`` with these rates; runs in ``failed``
    failed one operation."""
    directory.mkdir(exist_ok=True)
    for index, rate in enumerate(rates):
        failures = 1 if index in failed else 0
        metrics = {metric.name: {"value": 1.0, "unit": metric.unit}
                   for metric in END_TO_END if workload in metric.workloads}
        metrics["requests_per_s"]["value"] = rate
        metrics["failed_fraction"]["value"] = failures / 100
        record = {"schema": "perfbench.run/v1", "workload": workload,
                  "traced": False, "correct": not failures,
                  "attempted": 100, "failed": failures, "metrics": metrics}
        path = directory / f"{workload}-{index}.json"
        path.write_text(json.dumps(record), encoding="utf-8")


def _verdicts(rows):
    return {(row["workload"], row["metric"]): row["verdict"] for row in rows}


def test_compare_failed_or_missing_runs_regress(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_runs(parent, "golden_attack", [100.0] * 5)
    _write_runs(change, "golden_attack", [150.0] * 5, failed={4})
    _write_runs(parent, "detector_1m", [100.0] * 5)
    _write_runs(change, "benign_readmix", [100.0] * 5)
    verdicts = _verdicts(compare(parent, change))
    # One failing run of five: a 50 % gain still reads as a regression.
    golden = {metric: v for (workload, metric), v in verdicts.items()
              if workload == "golden_attack"}
    assert set(golden.values()) == {"regressed"}
    assert "requests_per_s" in golden and "failed_fraction" in golden
    assert verdicts[("detector_1m", "-")] == "regressed"
    assert verdicts[("benign_readmix", "-")] == "regressed"


def test_compare_reads_no_change_between_equal_correct_sets(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_runs(parent, "golden_attack", [100.0, 101.0, 99.0, 100.0, 100.5])
    _write_runs(change, "golden_attack", [101.0, 99.0, 100.0, 100.0, 101.0])
    assert set(_verdicts(compare(parent, change)).values()) == {"no change"}
