"""Fig. 4 — sliding-window score behaviour around the attack onset."""


def test_fig4_score_timeline(run_experiment):
    result = run_experiment("fig4_score")
    assert result.alarm_slice is not None
    # Alarm within one window of the onset.
    assert result.alarm_slice - result.onset <= 10.0
    scores = dict(result.scores)
    assert all(s == 0 for i, s in result.scores if i < result.onset - 1)
    assert max(scores.values()) >= result.threshold
