"""Table III — DRAM requirements of SSD-Insider's data structures."""

import pytest

from repro.units import MIB


def test_table3_dram_budget(run_experiment):
    result = run_experiment("table3_dram")
    assert result.budget.total_bytes / MIB == pytest.approx(40.03, abs=0.01)
    # The provisioned hash table covers the measured peak with margin.
    assert result.measured_peak_hash < result.budget.hash_entries
