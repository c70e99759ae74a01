"""Characterization goldens for the Figure 6 `compare` pipeline.

Pins the exact per-repetition totals and chosen-arm sequences of the
seven Figure 6 strategies (heuristics DC and Right-Left, Brent, bandits
UCB and UCB-struct, and the GPs: GP-discontinuous with fixed
hyper-parameters and GP-UCB with its per-iteration maximum-likelihood
refit) on two scenarios at reduced scale.  Any change to the simulator,
the noise model, the seed derivation or the strategies that shifts a
single resampled duration or decision fails here with a precise diff.

Regenerate deliberately after an intended behaviour change::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_compare_golden.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.evaluate import plan_cells, run_cells
from repro.measure import cached_bank
from repro.platform import get_scenario
from repro.strategies import STRATEGY_ORDER

GOLDEN = Path(__file__).parent / "goldens" / "compare_golden.json"
SCENARIO_KEYS = ("b", "c")
STRATEGIES = STRATEGY_ORDER
ITERATIONS = 20
REPS = 2


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TILES_101", "8")
    monkeypatch.setenv("REPRO_TILES_128", "8")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


def compute_characterization():
    banks = {k: cached_bank(get_scenario(k)) for k in SCENARIO_KEYS}
    cells = plan_cells(banks, STRATEGIES, REPS, include_baselines=False)
    results = run_cells(banks, cells, ITERATIONS)
    return {
        f"{r.cell.scenario}/{r.cell.strategy}/{r.cell.rep}": {
            "total": r.total,
            "chosen": [int(n) for n in r.chosen],
        }
        for r in results
    }


class TestCompareGolden:
    def test_exact_match(self):
        actual = compute_characterization()
        if os.environ.get("REPRO_REGEN_GOLDENS"):
            GOLDEN.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN.write_text(
                json.dumps(actual, indent=2, sort_keys=True) + "\n"
            )
            pytest.skip(f"regenerated {GOLDEN}")
        assert GOLDEN.exists(), (
            f"golden missing; run with REPRO_REGEN_GOLDENS=1 to create "
            f"{GOLDEN}"
        )
        expected = json.loads(GOLDEN.read_text())
        assert sorted(actual) == sorted(expected)
        for key in sorted(expected):
            assert actual[key]["chosen"] == expected[key]["chosen"], key
            # Exact float match: JSON round-trips IEEE doubles losslessly.
            assert actual[key]["total"] == expected[key]["total"], key

    def test_golden_covers_full_grid(self):
        expected = json.loads(GOLDEN.read_text())
        assert len(expected) == len(SCENARIO_KEYS) * len(STRATEGIES) * REPS
        for record in expected.values():
            assert len(record["chosen"]) == ITERATIONS
            assert record["total"] > 0
