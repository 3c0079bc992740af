"""Fig. 1 — ransomware overwriting behaviour (correlation + cumulative)."""


def test_fig1_overwriting_behaviour(run_experiment):
    result = run_experiment("fig1_overwriting")
    # Shape assertions: the figure's message must hold.
    assert all(c.pearson > 0.7 for c in result.correlations.values())
    totals = {k: (v[-1] if v else 0) for k, v in result.cumulative.items()}
    assert totals["wannacry"] > totals["cloudstorage"]
    assert totals["datawiping"] > totals["p2pdown"]
