"""Detection latency per sample — the abstract's "within 10 s" claim."""


def test_latency_profile(run_experiment):
    result = run_experiment("latency_profile")
    # Every combination detected in every run...
    for row in result.rows:
        assert row.detected == row.runs, row.scenario
    # ...with every mean under the paper's 10-second bound; the slow
    # samples under contention (Jaff/CryptoShield) form the tail.
    assert result.worst_mean() <= 10.0