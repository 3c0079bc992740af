"""Ablation — window size N and alarm threshold."""


def test_window_threshold_ablation(run_experiment):
    result = run_experiment("ablation_window")
    # Single-fit trees per window size: assertions are structural, not
    # absolute (the bundled operating-point numbers live in bench_fig7).
    paper_point = result.row(10, 3)
    assert paper_point.far <= 0.15 and paper_point.frr <= 0.15
    # Within one window size, raising the threshold never raises FAR.
    for window in (5, 10):
        fars = [result.row(window, t).far for t in (2, 3, 5)]
        assert fars == sorted(fars, reverse=True)
        # ...and never lowers FRR.
        frrs = [result.row(window, t).frr for t in (2, 3, 5)]
        assert frrs == sorted(frrs)
