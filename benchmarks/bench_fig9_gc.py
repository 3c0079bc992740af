"""Fig. 9 — GC page copies: conventional SSD vs SSD-Insider.

Worst case (90 % utilisation) and average case (70 %), as the paper
reports: ~22 % extra copies at 90 %, ~0 % at 70 %.
"""


def _aggregate(result):
    conventional = sum(r.conventional_copies for r in result.rows)
    insider = sum(r.insider_copies for r in result.rows)
    overhead = insider / conventional - 1.0 if conventional else 0.0
    return conventional, insider, overhead


def test_fig9_gc_overhead_worst_case(run_experiment):
    result = run_experiment("fig9_gc_90")
    conventional, insider, overhead = _aggregate(result)
    assert conventional > 0
    # Insider never erases pinned data for free: copies >= baseline,
    # with a bounded surcharge in the paper's neighbourhood.
    assert insider >= conventional
    assert overhead <= 0.60
    assert any(row.pinned_copies > 0 for row in result.rows)


def test_fig9_gc_overhead_average_case(run_experiment):
    result = run_experiment("fig9_gc_70")
    conventional, insider, overhead_70 = _aggregate(result)
    assert insider >= conventional
    # The paper's average case: near-free.  (Exact zero depends on trace
    # luck; the bound keeps the claim honest.)
    assert overhead_70 <= 0.30
