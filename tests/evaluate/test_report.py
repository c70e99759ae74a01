"""Tests for text reporting."""

import pytest

from repro.evaluate import (
    evaluate_scenario,
    evaluation_table,
    figure6_matrix,
    format_table,
    sweep_table,
)
from repro.measure import synthetic_bank


@pytest.fixture(scope="module")
def bank():
    return synthetic_bank(
        f=lambda n: 4.0 + 16.0 / n + 0.5 * n,
        actions=range(2, 9),
        lp=lambda n: 16.0 / n,
        group_boundaries=(4, 8),
        noise_sd=0.2,
        seed=1,
        label="(x) synthetic",
    )


class TestFormatTable:
    def test_alignment_and_header(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "--" in lines[1]
        assert "2.50" in lines[2]


class TestSweepTable:
    def test_contains_label_and_rows(self, bank):
        text = sweep_table(bank)
        assert "(x) synthetic" in text
        assert "n_fact" in text
        assert len(text.splitlines()) == 2 + 1 + len(bank.actions)

    def test_rigid_column_when_present(self, bank):
        bank.rigid = {n: 1.0 for n in bank.actions}
        try:
            assert "rigid" in sweep_table(bank)
        finally:
            bank.rigid = {}


class TestEvaluationTables:
    @pytest.fixture(scope="class")
    def evaluation(self, bank):
        return evaluate_scenario(bank, strategies=("DC",), iterations=20, reps=3)

    def test_evaluation_table(self, evaluation):
        text = evaluation_table(evaluation)
        assert "all-nodes baseline" in text
        assert "DC" in text
        assert "%" in text

    def test_figure6_matrix(self, evaluation):
        text = figure6_matrix({"x": evaluation})
        assert "(x)" in text
        assert "DC" in text

    def test_empty_matrix(self):
        assert "no scenarios" in figure6_matrix({})
