"""Table I — the implemented training/testing scenario matrix."""


def test_table1_scenario_matrix(run_experiment):
    result = run_experiment("table1_catalog")
    assert len(result.training_rows) == 13
    assert len(result.testing_rows) == 12
