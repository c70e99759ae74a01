"""Tests for the resampling strategy runner (on synthetic banks)."""

import numpy as np
import pytest

from repro.evaluate import evaluate_scenario, run_strategy_once
from repro.measure import synthetic_bank
from repro.strategies import AllNodesStrategy, make_strategy


@pytest.fixture(scope="module")
def bank():
    # Convex curve with minimum at n=6, all-nodes at n=14 clearly worse.
    return synthetic_bank(
        f=lambda n: 10.0 + 30.0 / n + 0.7 * n,
        actions=range(2, 15),
        lp=lambda n: 30.0 / n + 1.0,
        group_boundaries=(2, 8, 14),
        noise_sd=0.3,
        seed=3,
        label="synthetic convex",
    )


class TestRunStrategyOnce:
    def test_total_is_sum_of_resamples(self, bank):
        rng = np.random.default_rng(0)
        s = AllNodesStrategy(bank.action_space())
        total = run_strategy_once(s, bank, iterations=10, rng=rng)
        assert total == pytest.approx(sum(s.ys))
        assert s.iteration == 10

    def test_observations_come_from_bank(self, bank):
        rng = np.random.default_rng(1)
        s = AllNodesStrategy(bank.action_space())
        run_strategy_once(s, bank, iterations=5, rng=rng)
        assert all(y in bank.samples[14] for y in s.ys)


class TestEvaluateScenario:
    @pytest.fixture(scope="class")
    def evaluation(self, bank):
        return evaluate_scenario(
            bank, strategies=("DC", "GP-discontinuous"), iterations=40, reps=5
        )

    def test_baselines_ordered(self, evaluation):
        assert evaluation.oracle_mean < evaluation.all_nodes_mean

    def test_best_action_matches_bank(self, bank, evaluation):
        assert evaluation.best_action == bank.best_action()

    def test_summaries_present(self, evaluation):
        names = [s.name for s in evaluation.summaries]
        assert names == ["DC", "GP-discontinuous"]

    def test_strategies_beat_all_nodes_on_easy_curve(self, evaluation):
        for s in evaluation.summaries:
            assert s.mean_total < evaluation.all_nodes_mean

    def test_gains_consistent(self, evaluation):
        for s in evaluation.summaries:
            expected = (
                (evaluation.all_nodes_mean - s.mean_total)
                / evaluation.all_nodes_mean * 100.0
            )
            assert s.gain_pct == pytest.approx(expected)

    def test_summary_lookup(self, evaluation):
        assert evaluation.summary("DC").name == "DC"
        with pytest.raises(KeyError):
            evaluation.summary("nope")
        best = min(evaluation.summaries, key=lambda s: s.mean_total)
        assert best.name in ("DC", "GP-discontinuous")
