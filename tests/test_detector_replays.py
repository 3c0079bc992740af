"""Replays that read the detector's front end, pinned to fixed values.

The training dataset, Table III's measured peaks, traceinfo's OWIO
series and the Fig. 8 trace profile all replay their traces through
:class:`~repro.core.detector.RansomwareDetector`, the one place that
closes slices and expires counting-table entries.  The values below were
computed by hand-written slice loops that each kept their own copy of
that clock; the replays must keep reproducing them exactly.
"""

import hashlib
import json

import pytest

from repro.experiments import table3
from repro.ssd.timing import profile_trace
from repro.tools.profile import GOLDEN_SEED, golden_scenario
from repro.tools.traceinfo import _owio_per_second
from repro.train.dataset import build_dataset
from repro.workloads.catalog import training_scenarios


@pytest.fixture(scope="module")
def golden_trace():
    return golden_scenario(20.0).build(seed=GOLDEN_SEED).trace


def test_training_dataset_rows_and_labels():
    dataset = build_dataset(training_scenarios(), seed=5, duration=30.0)
    digest = hashlib.sha256(
        json.dumps([dataset.rows, dataset.labels]).encode()
    ).hexdigest()
    assert len(dataset) == 390
    assert dataset.positives == 120
    assert digest == (
        "df602f005ce0e95b1b26667388578c645da7760f698dd7b1c3b3aa645cfc8b30"
    )


def test_table3_measured_peaks():
    result = table3.run(seed=6, duration=30.0)
    assert result.measured_peak_hash == 26_385
    assert result.measured_peak_entries == 3_623


def test_traceinfo_owio_series(golden_trace):
    assert _owio_per_second(golden_trace) == [
        0, 0, 15, 0, 0, 0, 0, 6, 0, 0,
        1049, 884, 1015, 978, 1046, 959, 892, 895, 1209, 715,
    ]


def test_fig8_trace_profile(golden_trace):
    profile = profile_trace(golden_trace)
    assert (profile.reads, profile.writes) == (9_870, 19_451)
    assert profile.read_hit_rate == 18 / 9_870
    assert profile.overwrite_rate == 9_663 / 19_451
