"""Table II — file-system consistency after attack + rollback + fsck.

The paper ran 100 cycles against EXT4; this benchmark runs a reduced count
by default (each cycle builds a filesystem, attacks it, recovers, fscks,
and audits every file).  Raise the cycles in ``run_all.EXPERIMENTS`` for
the full-fidelity run.
"""

from repro.experiments import table2


def test_table2_consistency_cycles(run_experiment):
    result = run_experiment("table2_consistency")
    # The paper's outcome: every cycle detected, every corruption resolved,
    # no encrypted file left, nothing lost.
    assert result.alarms == result.cycles
    assert result.unresolved == 0
    assert result.files_encrypted_left == 0
    assert result.files_lost == 0


def test_table2_journaling_ablation(benchmark, publish, pretrained_tree):
    """With transactional metadata journaling the crash-like rollback
    state repairs by replay: the corruption classes vanish entirely."""
    result = benchmark.pedantic(
        lambda: table2.run(cycles=4, seed=3, tree=pretrained_tree,
                           num_files=250, journal_blocks=64),
        rounds=1, iterations=1,
    )
    publish("table2_journaled", result.render())
    assert result.alarms == 4
    assert sum(result.corruption_counts.values()) == 0
    assert result.files_encrypted_left == 0
    assert result.files_lost == 0
