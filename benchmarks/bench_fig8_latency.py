"""Fig. 8 — per-op software latency: baseline FTL vs +SSD-Insider.

Two halves: (a) the analytic cost-model reproduction of the paper's
per-trace nanosecond bars, and (b) *real* wall-clock microbenchmarks of
this implementation's per-request hot path, which bound what our Python
detector actually costs per header.
"""

from repro.blockdev.request import read as read_req, write as write_req
from repro.core.detector import RansomwareDetector


def test_fig8_latency_model(run_experiment):
    result = run_experiment("fig8_latency")
    # The paper's conclusions: insider overhead is a small constant per op,
    # writes cost more than reads, and both vanish against NAND latency.
    assert 100 <= result.avg_insider_read_ns <= 250
    assert 150 <= result.avg_insider_write_ns <= 400
    assert result.avg_insider_write_ns > result.avg_insider_read_ns
    assert all(row.read_share < 0.01 for row in result.rows)
    assert all(row.write_share < 0.01 for row in result.rows)


def test_detector_per_header_cost_read(benchmark, pretrained_tree):
    """Wall-clock cost of observing one read header (our firmware path)."""
    detector = RansomwareDetector(tree=pretrained_tree, keep_history=False)
    state = {"i": 0}

    def observe_read():
        state["i"] += 1
        detector.observe(read_req(state["i"] * 1e-4, state["i"] % 5000))

    benchmark(observe_read)


def test_detector_per_header_cost_overwrite(benchmark, pretrained_tree):
    """Wall-clock cost of the most expensive header: an overwrite."""
    detector = RansomwareDetector(tree=pretrained_tree, keep_history=False)
    for lba in range(5000):
        detector.observe(read_req(lba * 1e-4, lba))
    state = {"i": 0}

    def observe_overwrite():
        state["i"] += 1
        detector.observe(write_req(0.5 + state["i"] * 1e-4,
                                   state["i"] % 5000))

    benchmark(observe_overwrite)
