"""Dataset extraction, training, and FAR/FRR evaluation."""

import pytest

from repro.core.config import DetectorConfig
from repro.errors import TrainingError
from repro.train.dataset import Dataset, build_dataset, dataset_from_run
from repro.train.evaluate import evaluate_run, summarize_outcomes
from repro.train.trainer import (
    stress_validation_suite,
    train_from_scenarios,
    train_tree,
)
from repro.workloads.scenario import Scenario

RANSOM_SCENARIO = Scenario("pipeline-ransom", ransomware="wannacry",
                           app="websurfing")
BENIGN_SCENARIO = Scenario("pipeline-benign", app="database")


class TestDataset:
    def test_rows_per_slice(self):
        run = RANSOM_SCENARIO.build(seed=1, duration=30.0)
        dataset = dataset_from_run(run)
        assert len(dataset) == 30
        assert len(dataset.rows[0]) == 6

    def test_labels_match_activity(self):
        run = RANSOM_SCENARIO.build(seed=1, duration=30.0)
        dataset = dataset_from_run(run)
        assert dataset.positives == sum(run.slice_labels())

    def test_benign_run_all_zero_labels(self):
        run = BENIGN_SCENARIO.build(seed=2, duration=20.0)
        dataset = dataset_from_run(run)
        assert dataset.positives == 0

    def test_build_dataset_combines_scenarios(self):
        dataset = build_dataset([RANSOM_SCENARIO, BENIGN_SCENARIO],
                                seed=3, duration=20.0)
        assert len(dataset) == 40
        assert 0 < dataset.positives < 40

    def test_extend(self):
        a = Dataset(rows=[[0] * 6], labels=[0])
        b = Dataset(rows=[[1] * 6], labels=[1])
        a.extend(b)
        assert len(a) == 2 and a.positives == 1

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            Dataset().as_arrays()


class TestTraining:
    def test_trained_tree_separates_obvious_cases(self):
        tree = train_from_scenarios(
            [RANSOM_SCENARIO, BENIGN_SCENARIO], seed=4, duration=40.0,
            runs_per_scenario=2,
        )
        dataset = build_dataset([RANSOM_SCENARIO, BENIGN_SCENARIO],
                                seed=99, duration=40.0)
        X, y = dataset.as_arrays()
        hits = sum(p == t for p, t in zip(tree.predict(X), y))
        assert hits / len(y) > 0.85

    def test_tree_respects_config_depth(self):
        config = DetectorConfig(max_tree_depth=3)
        dataset = build_dataset([RANSOM_SCENARIO], seed=5, duration=30.0)
        tree = train_tree(dataset, config)
        assert tree.depth() <= 3


class TestEvaluation:
    def test_ransomware_run_detected(self, pretrained_tree):
        run = RANSOM_SCENARIO.build(seed=6, duration=40.0)
        outcome = evaluate_run(run, pretrained_tree)
        assert outcome.detected_at(3)
        assert outcome.detection_latency(3) is not None
        assert outcome.detection_latency(3) < 15.0

    def test_benign_run_not_detected(self, pretrained_tree):
        run = BENIGN_SCENARIO.build(seed=7, duration=30.0)
        outcome = evaluate_run(run, pretrained_tree)
        assert not outcome.alarmed_at(3)
        assert outcome.detection_latency(3) is None

    def test_detection_monotone_in_threshold(self, pretrained_tree):
        run = RANSOM_SCENARIO.build(seed=8, duration=40.0)
        outcome = evaluate_run(run, pretrained_tree)
        detected = [outcome.detected_at(t) for t in range(1, 11)]
        # Once detection fails at a threshold, it fails at all higher ones.
        assert detected == sorted(detected, reverse=True)

    def test_summary_far_frr(self, pretrained_tree):
        ransom = evaluate_run(RANSOM_SCENARIO.build(seed=9, duration=40.0),
                              pretrained_tree)
        benign = evaluate_run(
            RANSOM_SCENARIO.build(seed=9, duration=40.0,
                                  include_ransomware=False),
            pretrained_tree,
        )
        curves = summarize_outcomes([ransom, benign], thresholds=(3,))
        point = curves[ransom.category][0]
        assert point.frr == 0.0
        assert point.far == 0.0
        assert point.frr_runs == 1 and point.far_runs == 1


class TestStressSuite:
    def test_adds_slowed_variants_for_samples_only(self):
        suite = stress_validation_suite([RANSOM_SCENARIO, BENIGN_SCENARIO])
        slowed = [s for s in suite if s.extra_slowdown > 1.0]
        assert len(slowed) == 2  # two slowdowns x one ransomware scenario
        assert all(s.ransomware == "wannacry" for s in slowed)

    def test_originals_kept(self):
        suite = stress_validation_suite([RANSOM_SCENARIO])
        assert RANSOM_SCENARIO in suite
