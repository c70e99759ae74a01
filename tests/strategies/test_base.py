"""Tests for the strategy base classes and action space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.strategies import ActionSpace, AllNodesStrategy, GP2DStrategy, OracleStrategy

from .conftest import run_env


class TestActionSpace:
    def test_properties(self, space14):
        assert space14.lo == 2
        assert len(space14) == 13

    def test_clip(self, space14):
        assert space14.clip(1) == 2
        assert space14.clip(99) == 14
        assert space14.clip(7) == 7

    def test_clip_tie_prefers_smaller(self):
        # Equidistant ties must deterministically resolve to the
        # smaller node count (documented contract).
        space = ActionSpace(actions=(2, 4, 8, 10), n_total=10)
        assert space.clip(3) == 2    # tie between 2 and 4
        assert space.clip(6) == 4    # tie between 4 and 8
        assert space.clip(9) == 8    # tie between 8 and 10
        assert space.clip(5) == 4    # no tie: nearest wins

    def test_validation(self):
        with pytest.raises(ValueError):
            ActionSpace(actions=(), n_total=1)
        with pytest.raises(ValueError):
            ActionSpace(actions=(3, 2), n_total=3)
        with pytest.raises(ValueError):
            ActionSpace(actions=(1, 2), n_total=5)

    def test_from_cluster(self):
        from repro.platform import get_scenario

        cluster = get_scenario("b").build_cluster()
        space = ActionSpace.from_cluster(cluster, lo=2)
        assert space.n_total == 14
        assert space.group_boundaries == (2, 8, 14)
        assert space.actions == tuple(range(2, 15))


class TestActionSpaceContract:
    def test_contract_drops_lost_actions(self, space14):
        sub = space14.contract(9)
        assert sub.actions == tuple(range(2, 10))
        assert sub.n_total == 9
        assert sub.group_boundaries == (2, 8)

    def test_contract_noop_at_or_above_n(self, space14):
        assert space14.contract(14) is space14
        assert space14.contract(99) is space14

    def test_contract_shares_lp_bound(self):
        space = ActionSpace(actions=(2, 4, 8), n_total=8,
                            lp_bound=lambda n: 100.0 / n)
        sub = space.contract(4)
        assert sub.lp_bound is space.lp_bound
        assert sub.lp_bound(4) == pytest.approx(25.0)

    def test_contract_between_actions(self):
        # max_n between two allowed actions keeps only the lower ones.
        space = ActionSpace(actions=(2, 4, 8, 10), n_total=10)
        sub = space.contract(7)
        assert sub.actions == (2, 4)
        assert sub.n_total == 4

    def test_contract_clips_pending_proposal_of_crashed_best(self, space14):
        # A proposal queued for the (crashed) best arm must re-clip into
        # the surviving space, never escape it.
        pending = space14.n_total          # the best arm just crashed
        sub = space14.contract(10)
        clipped = sub.clip(pending)
        assert clipped == 10
        assert clipped in sub.actions

    def test_contract_single_action_degenerate(self, space14):
        sub = space14.contract(2)
        assert sub.actions == (2,)
        assert sub.n_total == 2
        assert len(sub) == 1
        # The degenerate space still clips everything onto its one arm.
        assert sub.clip(14) == 2
        assert sub.clip(1) == 2

    def test_contract_below_smallest_action_raises(self, space14):
        with pytest.raises(ValueError):
            space14.contract(1)


class TestActionSpaceProperties:
    """Property-style checks over randomized (seeded) spaces.

    The fault-resilience layer feeds ``contract``/``clip`` arbitrary
    combinations (crashes happen at any point of any space), so the
    invariants are checked over a seeded sample of spaces rather than a
    few hand-picked ones.
    """

    def _random_space(self, rng):
        import numpy as np

        n = int(rng.integers(2, 30))
        lo = int(rng.integers(1, n))
        # Random subset of lo..n, always keeping lo and n.
        members = {lo, n} | {
            int(a) for a in rng.choice(
                np.arange(lo, n + 1),
                size=int(rng.integers(0, n - lo + 1)),
                replace=False,
            )
        }
        return ActionSpace(actions=tuple(sorted(members)), n_total=n)

    def test_clip_is_nearest_member_preferring_smaller(self):
        import numpy as np

        rng = np.random.default_rng(1234)
        for _ in range(50):
            space = self._random_space(rng)
            for n in range(0, space.n_total + 3):
                clipped = space.clip(n)
                assert clipped in space.actions
                best = min(abs(a - n) for a in space.actions)
                assert abs(clipped - n) == best
                # Equidistant ties resolve to the smaller count.
                ties = [a for a in space.actions if abs(a - n) == best]
                assert clipped == min(ties)

    def test_contract_invariants(self):
        import numpy as np

        rng = np.random.default_rng(4321)
        for _ in range(50):
            space = self._random_space(rng)
            max_n = int(rng.integers(1, space.n_total + 3))
            if max_n < space.lo:
                with pytest.raises(ValueError):
                    space.contract(max_n)
                continue
            sub = space.contract(max_n)
            assert sub.actions == tuple(
                a for a in space.actions if a <= max_n
            )
            assert sub.n_total == sub.actions[-1]
            # Contraction is idempotent and clip never escapes it.
            assert sub.contract(max_n) is sub
            assert sub.clip(space.n_total) in sub.actions

    def test_contract_to_single_arm_keeps_space_usable(self, space14):
        sub = space14.contract(space14.lo)
        assert sub.actions == (space14.lo,)
        # Every query collapses onto the surviving arm.
        for n in (0, space14.lo, space14.n_total, 99):
            assert sub.clip(n) == space14.lo

    def test_contract_below_pending_proposal_reclips(self):
        # A crash may land between propose() and observe(): whatever was
        # pending must clip into the contracted space, for every
        # (pending, max_n) combination of a representative space.
        space = ActionSpace(actions=tuple(range(2, 15)), n_total=14,
                            group_boundaries=(2, 8, 14))
        for pending in space.actions:
            for max_n in range(space.lo, space.n_total + 1):
                sub = space.contract(max_n)
                assert sub.clip(pending) in sub.actions

    def test_dc_degenerate_space_fallback(self):
        # DC on a single-action space exhausts its interval before
        # measuring anything: it must fall back to the only action (via
        # n_total) instead of raising, and keep answering after
        # observations arrive.
        from repro.strategies import make_strategy

        space = ActionSpace(actions=(3,), n_total=3)
        dc = make_strategy("DC", space, seed=0)
        assert dc.propose() == 3
        dc.observe(3, 5.0)
        assert dc.propose() == 3


class TestStrategyBookkeeping:
    def test_all_nodes_always_n(self, space14):
        s = AllNodesStrategy(space14)
        assert [s.propose() for _ in range(3)] == [14, 14, 14]

    def test_observe_tracks_stats(self, space14):
        s = AllNodesStrategy(space14)
        s.observe(14, 10.0)
        s.observe(14, 12.0)
        assert s.iteration == 2
        assert s.mean_duration(14) == pytest.approx(11.0)
        assert s.times_selected(14) == 2

    def test_best_observed(self, space14):
        s = AllNodesStrategy(space14)
        s.observe(5, 10.0)
        s.observe(7, 4.0)
        s.observe(9, 8.0)
        assert s.best_observed() == 7

    def test_best_observed_empty(self, space14):
        with pytest.raises(RuntimeError):
            AllNodesStrategy(space14).best_observed()

    def test_negative_duration_rejected(self, space14):
        s = AllNodesStrategy(space14)
        with pytest.raises(ValueError):
            s.observe(14, -1.0)

    def test_mean_of_unknown_action(self, space14):
        with pytest.raises(KeyError):
            AllNodesStrategy(space14).mean_duration(5)

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(
        st.tuples(st.integers(1, 5),
                  st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
                  st.booleans()),
        min_size=1, max_size=40),
        pair_arms=st.booleans())
    def test_memoized_mean_equals_np_mean(self, steps, pair_arms):
        """Observations interleaved with mean reads, which fill the memo:
        every read, and every arm at the end, is ``np.mean`` bit for bit,
        for integer arms and for GP-2D's (n_gen, n_fact) pair arms."""
        if pair_arms:
            s = GP2DStrategy(pairs=[(a, 6 - a) for a in range(1, 6)] + [(5, 5)],
                             n_total=5)
            steps = [((arm, 6 - arm), duration, read)
                     for arm, duration, read in steps]
        else:
            s = AllNodesStrategy(ActionSpace(actions=(1, 2, 3, 4, 5), n_total=5))
        history = {}
        for arm, duration, read in steps:
            s.observe(arm, duration)
            history.setdefault(arm, []).append(duration)
            if read:
                assert s.mean_duration(arm) == float(np.mean(history[arm]))
        for arm, values in history.items():
            assert s.mean_duration(arm) == float(np.mean(values))
        best = min(history, key=lambda a: (float(np.mean(history[a])), a))
        assert s.best_observed() == best


class TestOracle:
    def test_plays_fixed_action(self, space14):
        s = OracleStrategy(space14, best_action=6)
        assert [s.propose() for _ in range(3)] == [6, 6, 6]

    def test_validates_action(self, space14):
        with pytest.raises(ValueError):
            OracleStrategy(space14, best_action=99)

    def test_run_env_helper(self, space14):
        s = run_env(OracleStrategy(space14, best_action=6), lambda n: float(n), 5)
        assert s.iteration == 5
        assert s.mean_duration(6) == 6.0
