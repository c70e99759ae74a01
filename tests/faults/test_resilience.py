"""Tests for the ResilientStrategy wrapper."""

import numpy as np
import pytest

from repro.faults import FaultEvent, ResilientStrategy
from repro.faults.resilience import resilient_name
from repro.strategies import STRATEGY_ORDER, ActionSpace, make_strategy


@pytest.fixture
def space():
    return ActionSpace(
        actions=tuple(range(1, 9)),
        n_total=8,
        group_boundaries=(4, 8),
        lp_bound=lambda n: 30.0 / n,
    )


def event(t, max_feasible, crashed=()):
    return FaultEvent(iteration=t, max_feasible=max_feasible,
                      crashed=tuple(crashed))


def drive(strategy, f, rounds, events=None):
    """Run propose/observe rounds against duration function ``f``."""
    events = events or {}
    actions = []
    for t in range(rounds):
        if t in events:
            strategy.on_fault_event(events[t])
        n = strategy.propose()
        actions.append(n)
        strategy.observe(n, f(t, n))
    return actions


class TestRegistration:
    def test_every_base_is_wrapped(self, space):
        for inner in STRATEGY_ORDER:
            s = make_strategy(resilient_name(inner), space, seed=1)
            assert isinstance(s, ResilientStrategy)
            assert s.name == f"Resilient({inner})"
            assert s.inner == inner

    def test_unknown_inner_rejected(self, space):
        with pytest.raises(ValueError):
            ResilientStrategy(space, 0, inner="NoSuchStrategy")

    def test_parameter_validation(self, space):
        with pytest.raises(ValueError):
            ResilientStrategy(space, 0, window=0)
        with pytest.raises(ValueError):
            ResilientStrategy(space, 0, max_retries=-1)
        with pytest.raises(ValueError):
            ResilientStrategy(space, 0, failure_factor=1.0)


class TestDeterminism:
    @pytest.mark.parametrize("inner", ["DC", "UCB", "GP-discontinuous"])
    def test_same_seed_same_actions_with_events(self, space, inner):
        def f(t, n):
            noise = np.random.default_rng((t, n)).normal(0.0, 0.2)
            return max(30.0 / n + 0.4 * (n - 1) + noise, 0.0)

        events = {6: event(6, 5, crashed=(6, 7, 8)),
                  14: event(14, 8)}
        first = drive(make_strategy(resilient_name(inner), space, seed=2),
                      f, 20, events)
        second = drive(make_strategy(resilient_name(inner), space, seed=2),
                       f, 20, events)
        assert first == second


class TestContraction:
    def test_fault_event_contracts_and_reexpands(self, space):
        s = ResilientStrategy(space, 0, inner="UCB")
        s.on_fault_event(event(0, 5, crashed=(6, 7, 8)))
        assert s.current_space.actions == tuple(range(1, 6))
        assert s.contractions == 1
        s.on_fault_event(event(1, 8))
        assert s.current_space is s.full_space
        assert s.contractions == 2

    def test_noop_event_changes_nothing(self, space):
        s = ResilientStrategy(space, 0, inner="UCB")
        inner_before = s._inner
        s.on_fault_event(event(0, 8))
        assert s._inner is inner_before
        assert s.contractions == 0

    @pytest.mark.parametrize("inner", ["DC", "UCB", "GP-discontinuous"])
    def test_proposals_respect_contracted_space(self, space, inner):
        def f(t, n):
            return 30.0 / n + 0.4 * (n - 1)

        s = make_strategy(resilient_name(inner), space, seed=3)
        events = {5: event(5, 4, crashed=(5, 6, 7, 8))}
        actions = drive(s, f, 15, events)
        # Once the best arm (8) crashed, every proposal -- including any
        # the inner had pending for the crashed optimum -- stays clipped
        # inside the surviving space.
        assert all(a <= 4 for a in actions[5:]), actions

    @pytest.mark.parametrize("inner", ["DC", "UCB", "GP-discontinuous"])
    def test_single_action_degenerate_space(self, space, inner):
        def f(t, n):
            return 30.0 / n

        s = make_strategy(resilient_name(inner), space, seed=4)
        events = {3: event(3, 1, crashed=tuple(range(2, 9)))}
        actions = drive(s, f, 10, events)
        assert all(a == 1 for a in actions[3:]), actions

    def test_contraction_clears_moot_retry_and_quarantine(self, space):
        s = ResilientStrategy(space, 0, inner="UCB", failure_factor=2.0)
        s._retry_arm = 8
        s._retry_count = 1
        s._quarantine = {8: 100, 3: 100}
        s.on_fault_event(event(0, 5, crashed=(6, 7, 8)))
        assert s._retry_arm is None
        assert s._quarantine == {3: 100}


class TestRetriesAndQuarantine:
    def make(self, space):
        return ResilientStrategy(
            space, 0, inner="UCB", failure_factor=2.0, max_retries=1,
            detector_threshold=1e9,   # keep the detector out of this test
        )

    def test_transient_failure_triggers_immediate_retry(self, space):
        s = self.make(space)
        s.observe(4, 5.0)
        s.observe(4, 5.0)
        s.observe(4, 50.0)          # > 2 x median(5, 5): transient failure
        assert s.retries == 1
        assert s.propose() == 4     # same arm retried immediately

    def test_healthy_retry_closes_the_episode(self, space):
        s = self.make(space)
        s.observe(4, 5.0)
        s.observe(4, 5.0)
        s.observe(4, 50.0)
        assert s.propose() == 4
        s.observe(4, 5.0)           # retry came back healthy
        assert s._retry_arm is None
        assert s.quarantined_total == 0

    def test_persistent_failure_quarantines_with_backoff(self, space):
        s = self.make(space)
        s.observe(4, 5.0)
        s.observe(4, 5.0)
        s.observe(4, 50.0)          # failure -> retry episode
        s.observe(4, 50.0)          # retry also failed -> quarantine
        assert s.quarantined_total == 1
        assert s._quarantine[4] > s.iteration
        # While quarantined, proposals dodge the arm.
        for _ in range(3):
            assert s.propose() != 4

    def test_backoff_grows_and_caps(self, space):
        s = ResilientStrategy(space, 0, inner="UCB", backoff_base=2,
                              max_backoff=16)
        for strike in range(1, 7):
            s._quarantine_arm(4)
            span = s._quarantine[4] - s.iteration
            assert span == min(2 * 2 ** (strike - 1), 16)


class TestReexploration:
    def test_detector_alarm_rebuilds_the_inner(self, space):
        def f(t, n):
            return 6.0 if t < 25 else 30.0   # platform falls off a cliff

        s = make_strategy(resilient_name("UCB"), space, seed=5)
        drive(s, f, 45)
        assert s.reexplorations >= 1
        assert len(s.detector.alarms) >= 1

    def test_cooldown_bounds_rebuild_rate(self, space):
        def f(t, n):
            # Alternate wildly so the detector would alarm constantly.
            return 5.0 if t % 2 == 0 else 60.0

        s = make_strategy(resilient_name("UCB"), space, seed=6)
        s.cooldown = 10
        drive(s, f, 40)
        assert s.reexplorations <= 4   # 40 iterations / cooldown 10

    def test_replay_safety_classification(self, space):
        safe = make_strategy("GP-discontinuous", space, seed=0)
        also_safe = make_strategy("UCB", space, seed=0)
        unsafe = make_strategy("DC", space, seed=0)
        assert ResilientStrategy._replay_safe(safe)
        assert ResilientStrategy._replay_safe(also_safe)
        assert not ResilientStrategy._replay_safe(unsafe)

    def test_summary_counters(self, space):
        s = ResilientStrategy(space, 0, inner="UCB")
        summary = s.resilience_summary()
        assert summary == {
            "reexplorations": 0, "contractions": 0, "retries": 0,
            "quarantines": 0, "alarms": 0,
        }
