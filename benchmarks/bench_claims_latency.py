"""§V headline claims — detection <10 s, recovery <1 s, 0 % data loss."""


def test_headline_claims(run_experiment):
    result = run_experiment("claims_headline")
    assert result.missed_detections == 0
    latencies = result.detection_latencies
    assert sum(latencies) / len(latencies) < 10.0
    assert result.recovery_model_seconds < 1.0
    assert result.recovery_wall_seconds < 1.0
    assert result.blocks_lost == 0
