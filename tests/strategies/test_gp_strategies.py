"""Tests for GP-UCB and GP-discontinuous."""

import numpy as np
import pytest

from repro import obs
from repro.strategies import (
    GPDiscontinuousStrategy,
    GPUCBStrategy,
    beta_t,
    make_strategy,
    strategy_names,
)

from .conftest import convex, run_env, stepped


class TestBetaSchedule:
    def test_grows_with_t(self):
        assert beta_t(10, 13) > beta_t(1, 13)

    def test_grows_with_actions(self):
        assert beta_t(5, 100) > beta_t(5, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            beta_t(0, 5)


class TestGPUCB:
    def test_initialization_sequence(self, space14):
        s = GPUCBStrategy(space14)
        picks = []
        for _ in range(4):
            n = s.propose()
            picks.append(n)
            s.observe(n, convex(n))
        # N, left-most, middle twice (middle of 2..14 is 8).
        assert picks == [14, 2, 8, 8]

    def test_finds_optimum_on_smooth_curve(self, space14):
        s = run_env(GPUCBStrategy(space14), convex, 40, noise_sd=0.2, seed=0)
        most = max(space14.actions, key=s.times_selected)
        assert abs(most - 5) <= 1

    def test_does_not_need_full_exploration(self, space14):
        s = run_env(GPUCBStrategy(space14), convex, 40, noise_sd=0.2, seed=0)
        # Clearly-bad actions are skipped entirely (paper, Figure 4A).
        assert len(set(s.xs)) < len(space14)

    def test_surrogate_predicts_curve(self, space14):
        s = run_env(GPUCBStrategy(space14), convex, 30, noise_sd=0.1, seed=1)
        grid = np.asarray(space14.actions, dtype=float)
        mean, sd = s.surrogate(grid)
        truth = np.array([convex(n) for n in space14.actions])
        # Mean within ~2 sd of truth on most of the grid.
        close = np.abs(mean - truth) <= 2.5 * sd + 0.5
        assert close.mean() > 0.7

    def test_proposals_in_space(self, space14):
        s = GPUCBStrategy(space14)
        for _ in range(15):
            n = s.propose()
            assert n in space14.actions
            s.observe(n, convex(n))


class TestGPDiscontinuous:
    def test_requires_lp_bound(self, space14):
        with pytest.raises(ValueError, match="lp_bound"):
            GPDiscontinuousStrategy(space14)

    def test_first_action_all_nodes(self, space14_lp):
        assert GPDiscontinuousStrategy(space14_lp).propose() == 14

    def test_bound_mechanism_prunes_left(self, space14_lp):
        s = GPDiscontinuousStrategy(space14_lp)
        s.observe(14, 12.0)  # f(N) = 12 -> LP(n) = 1 + 60/n < 12 <=> n > 5.45
        assert s.bound_left_point() == 6
        allowed = s._allowed_actions()
        assert allowed.min() == 6

    def test_design_includes_group_boundaries(self, space14_lp):
        s = GPDiscontinuousStrategy(space14_lp)
        picks = []
        for _ in range(6):
            n = s.propose()
            picks.append(n)
            s.observe(n, stepped(n))
        # After N: n_l, mid, mid, then boundary 8 (boundary 2 pruned).
        assert picks[0] == 14
        nl = s.bound_left_point()
        assert picks[1] == nl
        assert picks[2] == picks[3]  # replicated middle
        assert 8 in picks  # group boundary measured

    def test_finds_optimum_on_stepped_curve(self, space14_lp):
        s = run_env(GPDiscontinuousStrategy(space14_lp), stepped, 50,
                    noise_sd=0.2, seed=0)
        # stepped's optimum over the allowed region is n=8.
        most = max(set(s.xs), key=s.times_selected)
        assert abs(most - 8) <= 1

    def test_never_plays_pruned_actions(self, space14_lp):
        s = run_env(GPDiscontinuousStrategy(space14_lp), stepped, 40,
                    noise_sd=0.2, seed=1)
        nl = s.bound_left_point()
        assert all(x >= nl for x in s.xs[1:])

    def test_surrogate_includes_lp_baseline(self, space14_lp):
        s = run_env(GPDiscontinuousStrategy(space14_lp), stepped, 25,
                    noise_sd=0.1, seed=2)
        grid = s._allowed_actions()
        mean, _ = s.surrogate(grid)
        lp = np.array([space14_lp.lp_bound(int(n)) for n in grid])
        # Predicted durations sit above the LP lower bound on average.
        assert (mean - lp).mean() > 0

    def test_handles_single_group_cluster(self):
        """Homogeneous clusters (scenario m) use a plain linear trend."""
        from repro.strategies import ActionSpace

        space = ActionSpace(
            actions=tuple(range(4, 17)), n_total=16,
            group_boundaries=(16,), lp_bound=lambda n: 32.0 / n,
        )
        s = run_env(GPDiscontinuousStrategy(space), lambda n: 32.0 / n + 0.4 * n,
                    30, noise_sd=0.1, seed=3)
        most = max(set(s.xs), key=s.times_selected)
        assert abs(most - 9) <= 2  # optimum of 32/n + .4n is ~8.9


class TestDecisionLog:
    @pytest.mark.parametrize("cls", [GPUCBStrategy, GPDiscontinuousStrategy])
    def test_logged_acquisition_is_the_picks(self, cls, space14_lp):
        """The decision log reports the acquisition value the pick used.

        ``_next_action`` minimizes ``baseline + LCB(beta_t)``; the logged
        ``acquisition`` must be that array's value at the chosen arm,
        not one recomputed with the next iteration's beta.
        """
        strategy = cls(space14_lp)
        refit = strategy.refit
        picked = []

        def recorded():
            gp = refit()
            lcb = gp.lower_confidence_bound

            def traced_lcb(grid, beta):
                values = lcb(grid, beta)
                acq = strategy._baseline(grid) + values
                picked.append(dict(zip(grid.astype(int).tolist(), acq)))
                return values

            gp.lower_confidence_bound = traced_lcb
            return gp

        strategy.refit = recorded
        tracer = obs.start_trace(ticks=True)
        try:
            run_env(strategy, stepped, 20, noise_sd=0.2, seed=1)
            decisions = [r for r in tracer.sink.records
                         if r["kind"] == "decision" and "acquisition" in r]
        finally:
            obs.finish_trace()
        # Every decision after the initial design followed a refit.
        assert len(decisions) == len(picked) >= 10
        for record, acq in zip(decisions, picked):
            assert record["acquisition"] == pytest.approx(
                acq[record["arm"]], rel=1e-9)


class TestRegistry:
    def test_seven_strategies(self):
        assert len(strategy_names()) == 7

    def test_make_all(self, space14_lp):
        for name in strategy_names():
            s = make_strategy(name, space14_lp, seed=1)
            assert s.name == name
            n = s.propose()
            assert n in space14_lp.actions

    def test_unknown_name(self, space14_lp):
        with pytest.raises(ValueError):
            make_strategy("SGD", space14_lp)
