"""Fig. 7 — FAR/FRR vs score threshold, per background category.

The paper's headline: at threshold 3 the detector has 0 % FRR in every
scenario and at most ~5 % FAR (heavy overwriting only).  Paper runs each
combination 20 times; ``run_all.EXPERIMENTS`` uses five repetitions to
keep the suite's runtime reasonable (raise them to 20 there for the
full-fidelity sweep).
"""


def test_fig7_far_frr_sweep(run_experiment):
    result = run_experiment("fig7_accuracy")
    at_three = result.at_threshold(3)
    # FRR 0% everywhere at the paper's operating point.
    assert all(point.frr == 0.0 for point in at_three.values())
    # FAR 0% except possibly heavy overwriting, bounded by ~the paper's 5%
    # (we allow a wider band: each run is a Bernoulli draw at few reps).
    for category, point in at_three.items():
        if category == "heavy_overwrite":
            assert point.far <= 0.34
        else:
            assert point.far == 0.0
    # The curves have the paper's shape.
    for category, points in result.curves.items():
        frrs = [p.frr for p in points]
        fars = [p.far for p in points]
        assert frrs == sorted(frrs), category
        assert fars == sorted(fars, reverse=True), category
