"""Determinism smoke test over the whole strategy registry.

Every registered strategy, driven twice with the same seed against the
same (seeded-noise) synthetic environment, must produce bit-identical
action sequences — the property the paper's 30-rep experiments and the
DET001 analysis rule both rest on.
"""

import numpy as np
import pytest

from repro.strategies import ActionSpace, make_strategy, registered_names

from .conftest import stepped


@pytest.fixture
def space():
    return ActionSpace(
        actions=tuple(range(2, 15)),
        n_total=14,
        group_boundaries=(2, 8, 14),
        lp_bound=lambda n: 1.0 + 60.0 / n,
    )


def drive(name, space, seed, rounds=10):
    """Run ``rounds`` propose/observe cycles; return the action sequence."""
    strategy = make_strategy(name, space, seed=seed)
    noise = np.random.default_rng(seed + 1000)
    actions = []
    for _ in range(rounds):
        n = strategy.propose()
        actions.append(n)
        y = stepped(n) + noise.normal(0.0, 0.3)
        strategy.observe(n, max(y, 0.0))
    return actions


class TestRegistryDeterminism:
    def test_registry_covers_extensions(self):
        names = registered_names()
        assert {"All-nodes", "SANN", "StochasticApprox",
                "GP-discontinuous-windowed"} <= set(names)
        assert {"DC", "Right-Left", "Brent", "UCB", "UCB-struct",
                "GP-UCB", "GP-discontinuous"} <= set(names)

    def test_registry_covers_resilient_wrappers(self):
        from repro.strategies import STRATEGY_ORDER

        names = set(registered_names())
        assert STRATEGY_ORDER == ("DC", "Right-Left", "Brent", "UCB",
                                  "UCB-struct", "GP-UCB", "GP-discontinuous")
        for inner in STRATEGY_ORDER:
            assert f"Resilient({inner})" in names

    @pytest.mark.parametrize("name", registered_names())
    def test_same_seed_same_actions(self, name, space):
        first = drive(name, space, seed=3)
        second = drive(name, space, seed=3)
        assert first == second, f"{name} is not run-to-run deterministic"

    @pytest.mark.parametrize("name", ["SANN", "GP-UCB", "UCB"])
    def test_actions_stay_in_space(self, name, space):
        for n in drive(name, space, seed=7, rounds=15):
            assert n in space.actions
