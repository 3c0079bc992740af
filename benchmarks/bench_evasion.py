"""Extension study — throttled-attacker evasion sweep."""


def test_evasion_sweep(run_experiment):
    result = run_experiment("evasion_sweep")
    by_rate = {row.blocks_per_second: row for row in result.rows}
    # Fast attacks are always caught, quickly.
    assert by_rate[1600].detection_rate == 1.0
    assert by_rate[1600].mean_latency <= 10.0
    assert by_rate[400].detection_rate == 1.0
    # A sufficiently slow attacker can slip under the rate features —
    # the known limitation — but its damage rate collapses with it.
    slowest = by_rate[5]
    fastest = by_rate[1600]
    assert slowest.damage_blocks_per_minute < \
        fastest.damage_blocks_per_minute / 20.0
