"""Decision attribution: tree paths, margins, and the near-miss tracker."""

import pytest

from repro.blockdev.request import read, write
from repro.core.config import DetectorConfig
from repro.core.detector import RansomwareDetector
from repro.core.features import FEATURE_NAMES
from repro.core.id3 import DecisionTree, TreeNode
from repro.core.pretrained import default_tree
from repro.obs import Observability
from repro.obs.flightrec import FlightRecorder
from repro.obs.forensics import AttributionRecorder, path_margins
from repro.rand import derive_rng
from repro.workloads.scenario import Scenario


def owio_tree(threshold: float = 0.5) -> DecisionTree:
    tree = DecisionTree()
    tree.root = TreeNode(
        feature=FEATURE_NAMES.index("owio"),
        threshold=threshold,
        left=TreeNode(label=0, samples=10),
        right=TreeNode(label=1, samples=20),
    )
    return tree


class TestExplainOne:
    def test_explained_label_matches_predict(self):
        tree = default_tree()
        rng = derive_rng(11, "forensics", "rows")
        for _ in range(200):
            row = tuple(float(value) for value in rng.uniform(0, 5000, 6))
            path = tree.explain_one(row)
            assert path.label == tree.predict_one(row)

    def test_steps_record_the_actual_comparisons(self):
        tree = owio_tree(threshold=0.5)
        path = tree.explain_one((3.0, 0, 0, 0, 0, 0))
        (step,) = path.steps
        assert step.feature_name == "owio"
        assert step.value == 3.0
        assert step.threshold == 0.5
        assert not step.went_left
        assert path.label == 1
        assert path.leaf_samples == 20

    def test_node_ids_are_stable_preorder(self):
        tree = owio_tree()
        first = tree.explain_one((3.0, 0, 0, 0, 0, 0))
        second = tree.explain_one((0.0, 0, 0, 0, 0, 0))
        # Root is node 0; preorder puts the left leaf at 1, right at 2.
        assert first.steps[0].node_id == 0
        assert second.steps[0].node_id == 0
        assert second.leaf_id == 1
        assert first.leaf_id == 2

    def test_margins_are_min_distance_to_flip(self):
        tree = DecisionTree()
        tree.root = TreeNode(
            feature=0, threshold=10.0,
            left=TreeNode(label=0),
            right=TreeNode(
                feature=0, threshold=100.0,
                left=TreeNode(label=0),
                right=TreeNode(label=1),
            ),
        )
        path = tree.explain_one((40.0, 0, 0, 0, 0, 0))
        margins = path_margins(path)
        # Tested twice (|40-10|=30, |40-100|=60); the tighter one wins.
        assert margins == {"owio": 30.0}


class TestAttributionRecorder:
    def _record(self, recorder, tree, score, index, alarm=False):
        features = {name: 0.0 for name in FEATURE_NAMES}
        recorder.record(
            tree, features, (0.0,) * 6,
            time=float(index + 1), slice_index=index,
            verdict=0, score=score, alarm=alarm,
        )

    def test_ring_bounds_and_drop_accounting(self):
        tree = owio_tree()
        recorder = AttributionRecorder(capacity=4)
        for index in range(10):
            self._record(recorder, tree, score=0, index=index)
        assert len(recorder.slices) == 4
        assert recorder.recorded == 10
        assert recorder.dropped == 6
        assert recorder.latest.slice_index == 9

    def test_near_miss_retained_on_sub_threshold_peak(self):
        tree = owio_tree()
        recorder = AttributionRecorder(capacity=32, threshold=3)
        for index, score in enumerate([0, 1, 2, 1, 0]):
            self._record(recorder, tree, score=score, index=index)
        (near,) = recorder.near_misses
        assert near.score == 2
        assert near.slice_index == 2
        assert near.near_miss
        # Ring entries are never mutated in place.
        assert all(not entry.near_miss for entry in recorder.slices)

    def test_peak_at_threshold_is_not_a_near_miss(self):
        tree = owio_tree()
        recorder = AttributionRecorder(capacity=32, threshold=3)
        for index, score in enumerate([0, 1, 2, 3, 2, 1]):
            self._record(recorder, tree, score=score, index=index,
                         alarm=score >= 3)
        assert not recorder.near_misses

    def test_record_repeat_materialises_only_capacity(self):
        tree = owio_tree()
        recorder = AttributionRecorder(capacity=8)
        recorder.record_repeat(
            tree, {name: 0.0 for name in FEATURE_NAMES}, (0.0,) * 6,
            verdict=0, score=0, alarm=False,
            first_index=100, count=1000, slice_duration=1.0,
        )
        assert recorder.recorded == 1000
        assert len(recorder.slices) == 8
        assert [entry.slice_index for entry in recorder.slices] == list(
            range(1092, 1100)
        )
        assert recorder.latest.time == 1100.0


class TestGoldenScenarioAttribution:
    def test_recorded_paths_match_leaf_verdicts_bit_for_bit(self):
        """Satellite (d): every recorded path IS the tree's own verdict."""
        scenario = Scenario(
            "forensics-golden", ransomware="wannacry", app="cloudstorage",
            category="heavy_overwrite", duration=40.0,
        )
        run = scenario.build(seed=20180706)
        flight = FlightRecorder(budget_bytes=1024 * 1024)
        detector = RansomwareDetector(
            config=DetectorConfig(),
            probe=Observability.on(flight=flight),
        )
        for request in run.trace:
            detector.observe(request)
        detector.tick(run.trace.end_time + 1.0)
        attribution = flight.attribution
        assert attribution.recorded == len(detector.events)
        recorded = {entry.slice_index: entry for entry in attribution.slices}
        checked = 0
        for event in detector.events:
            entry = recorded.get(event.slice_index)
            if entry is None:  # evicted from the ring
                continue
            assert entry.verdict == event.verdict
            assert entry.score == event.score
            assert entry.alarm == event.alarm
            assert entry.features == event.features.as_dict()
            # The recorded path must be exactly what the tree walks today.
            replayed = detector.tree.explain_one(event.features.as_tuple())
            assert entry.path == replayed
            assert entry.path.label == event.verdict
            checked += 1
        assert checked > 0

    def test_near_miss_run_produces_non_alarm_record(self):
        """A score peak at threshold-1 leaves a forensic record, no alarm."""
        config = DetectorConfig(slice_duration=1.0, window_slices=10,
                                threshold=3)
        flight = FlightRecorder()
        detector = RansomwareDetector(
            tree=owio_tree(threshold=0.5), config=config,
            probe=Observability.on(flight=flight),
        )
        # Two overwrite-heavy slices (verdict 1), then quiet: the score
        # climbs to 2 = threshold - 1 and decays without alarming.
        for slice_index in range(2):
            base = slice_index * 100
            for offset in range(8):
                t = slice_index + 0.1 + offset * 0.01
                detector.observe(read(t, base + offset))
                detector.observe(write(t + 0.001, base + offset))
        # Tick far enough that the verdict-1 slices age out of the score
        # window: the score trajectory 1, 2, ..., 2, 1, 0 peaks at
        # threshold - 1 and the falling edge marks the near-miss.
        detector.tick(14.0)
        assert not detector.alarm_raised
        (near,) = flight.attribution.near_misses
        assert near.score == config.threshold - 1
        assert not near.alarm
        assert near.near_miss
        bundle = flight.snapshot("manual", sim_time=14.0)
        assert bundle["attribution"]["near_misses"][0]["score"] == 2


class TestDetectorHistory:
    def test_unbounded_history_never_drops(self):
        tree = DecisionTree()
        tree.root = TreeNode(label=0)
        detector = RansomwareDetector(tree=tree)
        detector.tick(12.0)
        assert [event.slice_index for event in detector.events] == list(
            range(12)
        )
