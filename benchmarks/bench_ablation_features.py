"""Ablation — each feature's contribution at the operating point."""


def test_feature_ablation(run_experiment):
    result = run_experiment("ablation_features")
    # NOTE: each configuration here is a *single* greedy ID3 fit (unlike
    # the bundled tree, which is validation-selected), so absolute numbers
    # carry fit-to-fit noise; the assertions are relative and structural.
    reference = result.row("(none)")
    # The full feature set never false-alarms at the operating point.
    assert reference.worst_far <= 0.25
    # Dropping OWIO — the paper's "most significant feature" — visibly
    # degrades the detector.
    no_owio = result.row("owio")
    assert (no_owio.worst_far + no_owio.worst_frr
            > reference.worst_far + reference.worst_frr)
    # At least one feature is load-bearing overall.
    degradations = [
        row.worst_far + row.worst_frr
        - (reference.worst_far + reference.worst_frr)
        for row in result.rows[1:]
    ]
    assert max(degradations) > 0.0
