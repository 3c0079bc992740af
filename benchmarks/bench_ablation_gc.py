"""Ablation — GC victim policies under the Insider FTL's pinned pages."""


def test_gc_policy_ablation(run_experiment):
    result = run_experiment("ablation_gc")
    # Six combinations: {conventional, insider} x 3 policies.
    assert len(result.rows) == 6
    for policy in ("greedy", "wear_aware"):
        conventional = result.row("conventional", policy)
        insider = result.row("insider", policy)
        # Under space-greedy policies, delayed deletion costs copies.
        assert insider.gc_copies >= conventional.gc_copies, policy
        assert conventional.write_amplification >= 1.0
    # Cost-benefit weighs age over space, so the two FTLs diverge in
    # victim choice and strict ordering no longer holds — but the pinned
    # surcharge stays bounded (within a few percent either way).
    cb_conventional = result.row("conventional", "cost_benefit")
    cb_insider = result.row("insider", "cost_benefit")
    assert cb_insider.gc_copies >= cb_conventional.gc_copies * 0.9
    # Cost-benefit's age weighting costs far more copies on a hot trace
    # than greedy does — the reason the paper's baseline is greedy.
    assert cb_conventional.gc_copies > result.row(
        "conventional", "greedy"
    ).gc_copies
