"""Ablation — model choice: ID3 tree vs logistic regression vs stump."""


def test_classifier_ablation(run_experiment):
    result = run_experiment("ablation_classifier")
    tree = result.row("id3-tree")
    logistic = result.row("logistic")
    stump = result.row("stump")
    # The paper's choice holds up: at a firmware-trivial footprint...
    assert tree.memory_bytes < 1024
    # ...the tree beats a single threshold (the stump misses slow samples
    # or false-alarms on the wiper — one scalar cannot do both)...
    assert stump.worst_far + stump.worst_frr > tree.worst_far + tree.worst_frr
    # ...and the linear model is no better than the tree on this feature
    # space (the wiper/ransomware boundary is genuinely non-linear:
    # high-OWIO is malicious only when OWST is high and AVGWIO low).
    assert (logistic.worst_far + logistic.worst_frr
            >= tree.worst_far + tree.worst_frr)
