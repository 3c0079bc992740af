"""Table III DRAM budgeting."""

import pytest

from repro.core.memory import paper_memory_budget
from repro.units import MIB


class TestPaperBudget:
    def test_total_matches_paper(self):
        budget = paper_memory_budget()
        assert budget.total_bytes / MIB == pytest.approx(40.03, abs=0.01)

    def test_hash_table_10mb(self):
        assert paper_memory_budget().hash_bytes / MIB == pytest.approx(10.01, abs=0.01)

    def test_queue_30mb(self):
        assert paper_memory_budget().queue_bytes / MIB == pytest.approx(30.0, abs=0.01)

    def test_rows_structure(self):
        rows = paper_memory_budget().rows()
        assert [row[0] for row in rows] == [
            "Hash table", "Counting table", "Recovery queue",
        ]
        assert rows[0][1] == 42 and rows[1][1] == 12 and rows[2][1] == 12

