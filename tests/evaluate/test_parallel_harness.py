"""Tests for the cell harness: seed derivation, plan order, cell independence.

The determinism contract (DET001) promises that the Figure 6 grid is a
pure function of its seeds; this suite pins the harness side of it:
each cell's result depends only on the cell's identity, and plans have
one deterministic order.
"""

import random

import numpy as np
import pytest

from repro.evaluate import evaluate_scenario, plan_cells, run_cells
from repro.evaluate.parallel import (
    ALL_NODES_CELL,
    ORACLE_CELL,
    EvalCell,
    derive_cell_seed,
)
from repro.measure import DriftingBank, synthetic_bank

#: The grid: 3 scenarios x 3 strategies (one per family).
STRATEGIES = ("DC", "UCB", "GP-discontinuous")
ITERATIONS = 25
REPS = 3


def _make_banks():
    banks = {}
    for i, (key, slope) in enumerate([("s1", 0.7), ("s2", 0.4), ("s3", 1.1)]):
        banks[key] = synthetic_bank(
            f=lambda n, s=slope: 10.0 + 30.0 / n + s * n,
            actions=range(2, 13),
            lp=lambda n: 30.0 / n + 1.0,
            group_boundaries=(2, 6, 12),
            noise_sd=0.4,
            seed=i,
            label=f"synthetic {key}",
        )
    return banks


@pytest.fixture(scope="module")
def banks():
    return _make_banks()


class TestCellIndependence:
    def test_cell_results_independent_of_submission_order(self, banks):
        """Shuffled submission order must not change any cell's result."""
        cells = plan_cells(banks, ("DC", "UCB"), REPS)
        ordered = run_cells(banks, cells, ITERATIONS)
        shuffled = list(cells)
        random.Random(0).shuffle(shuffled)
        by_cell = {r.cell: r for r in run_cells(banks, shuffled, ITERATIONS)}
        for r in ordered:
            assert np.array_equal(by_cell[r.cell].durations, r.durations)
            assert by_cell[r.cell].total == r.total


class TestSeedDerivation:
    def test_matches_historical_serial_scheme(self):
        import zlib

        assert derive_cell_seed("DC", 3, 7) == (7, 3, zlib.crc32(b"DC"))
        assert derive_cell_seed(ALL_NODES_CELL, 2, 0) == (0, 2, 0xBA5E)
        assert derive_cell_seed(ORACLE_CELL, 2, 0) == (0, 2, 0xBA5E)

    def test_pure_function_of_cell_identity(self):
        a = derive_cell_seed("GP-discontinuous", 5, 1)
        b = derive_cell_seed("GP-discontinuous", 5, 1)
        assert a == b
        assert derive_cell_seed("GP-discontinuous", 6, 1) != a
        assert derive_cell_seed("GP-UCB", 5, 1) != a

    def test_plan_order_is_deterministic(self, banks):
        p1 = plan_cells(banks, STRATEGIES, 2)
        p2 = plan_cells(dict(reversed(list(banks.items()))), STRATEGIES, 2)
        assert p1 == p2
        assert p1[0] == EvalCell("s1", ALL_NODES_CELL, 0)


class TestDriftingBank:
    def test_serial_run_keeps_the_regime_clock(self, banks):
        """A stateful bank runs through the harness; its clock spans cells."""
        before = banks["s1"]
        after = synthetic_bank(
            f=lambda n: 5.0 + 50.0 / n, actions=range(2, 13), seed=9,
            label="after",
        )
        drift = DriftingBank(before, after, switch_at=10)
        cells = [EvalCell("d", "DC", rep) for rep in range(2)]
        assert len(run_cells({"d": drift}, cells, 10)) == 2
        assert drift.current() is after


class TestEvaluateScenario:
    def test_only_one_worker_is_accepted(self, banks):
        with pytest.raises(ValueError, match="workers must be 1"):
            evaluate_scenario(banks["s1"], ("DC",), iterations=5, reps=1,
                              workers=2)
