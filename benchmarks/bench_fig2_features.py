"""Fig. 2 — the six features' correlation and cumulative panels."""


def test_fig2_feature_panels(run_experiment):
    result = run_experiment("fig2_features")
    # Every feature correlates positively with activity for fast samples.
    for feature in ("owio", "owst", "pwio", "avgwio"):
        assert result.correlations[feature]["wannacry"] > 0.3, feature
    # The cumulative OWST separation: every sample above every benign app.
    assert result.ransomware_lead("owst") > 1.0
