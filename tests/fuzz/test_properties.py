"""Tests for the strategy property checks over fuzzed scenarios."""

import dataclasses

import numpy as np
import pytest

from repro.fuzz import (
    ADAPTIVE_BASES,
    DEFAULT_REGRET_BOUND,
    PropertyConfig,
    build_bank,
    check_platform,
    regret_bound_for,
    regret_ratio,
    run_properties,
    sample_corpus,
    sample_platform,
)
from repro.fuzz.properties import UNIVERSAL_BOUND, base_strategy_name
from repro.strategies import registered_names

#: A cheap but representative strategy slice: one heuristic, one bandit,
#: one GP, one resilient wrapper.
FAST_STRATEGIES = ("DC", "UCB", "GP-discontinuous", "Resilient(UCB)")


def fast_config(**overrides):
    base = dict(strategies=FAST_STRATEGIES)
    base.update(overrides)
    return PropertyConfig(**base)


class TestBoundClassing:
    def test_resilient_wrappers_inherit_the_base_class(self):
        assert base_strategy_name("Resilient(UCB)") == "UCB"
        assert base_strategy_name("UCB") == "UCB"
        assert base_strategy_name("Resilient(GP-UCB)") == "GP-UCB"

    def test_adaptive_strategies_get_the_tight_bound(self):
        for name in ADAPTIVE_BASES:
            assert regret_bound_for(name, 0.4) == 0.4
        assert regret_bound_for("Resilient(UCB)", 0.4) == 0.4

    def test_heuristics_get_the_universal_bound(self):
        for name in ("DC", "Right-Left", "Brent", "SANN",
                     "StochasticApprox", "All-nodes"):
            assert regret_bound_for(name, 0.4) == UNIVERSAL_BOUND

    def test_ucb_struct_is_deliberately_universal(self):
        # Its boundary prior is what fuzzed landscapes break (documented
        # calibration decision); moving it to the tight tier is an
        # interface change.
        assert regret_bound_for("UCB-struct", 0.4) == UNIVERSAL_BOUND
        assert regret_bound_for("Resilient(UCB-struct)", 0.4) \
            == UNIVERSAL_BOUND

    def test_every_registered_strategy_is_classified(self):
        # New strategies must land in one of the two tiers consciously.
        for name in registered_names():
            bound = regret_bound_for(name, DEFAULT_REGRET_BOUND)
            assert bound in (DEFAULT_REGRET_BOUND, UNIVERSAL_BOUND)


class TestRegretRatio:
    MEANS = {2: 10.0, 3: 6.0, 4: 8.0}

    def test_always_best_is_zero(self):
        ratio, lowest = regret_ratio([3, 3, 3], self.MEANS)
        assert ratio == 0.0
        assert lowest == 0.0

    def test_always_worst_is_one(self):
        ratio, _ = regret_ratio([2, 2], self.MEANS)
        assert ratio == pytest.approx(1.0)

    def test_mixed_play_lands_in_between(self):
        ratio, lowest = regret_ratio([2, 3, 4, 3], self.MEANS)
        # (4 + 0 + 2 + 0) / (4 * 4)
        assert ratio == pytest.approx(6.0 / 16.0)
        assert lowest == 0.0

    def test_flat_landscape_is_zero(self):
        ratio, _ = regret_ratio([2, 3], {2: 5.0, 3: 5.0})
        assert ratio == 0.0

    def test_faulted_ratio_uses_the_injector(self):
        from repro.faults import FaultInjector, canned_schedules

        schedule = canned_schedules(4, 20, seed=0)["straggler"]
        injector = FaultInjector(schedule, (2, 3, 4), 20)
        means = {2: 10.0, 3: 6.0, 4: 8.0}
        chosen = [3] * 20
        ratio, lowest = regret_ratio(chosen, means, injector)
        assert 0.0 <= ratio <= 1.0 + 1e-9
        assert lowest >= -1e-12
        # Playing the oracle arm per iteration is exactly zero regret.
        oracle = [injector.oracle_duration(t, means)[0] for t in range(20)]
        zero, _ = regret_ratio(oracle, means, injector)
        assert zero == pytest.approx(0.0, abs=1e-12)


class TestBuildBank:
    def test_cholesky_bank_has_lp_and_boundaries(self):
        platform = next(
            p for p in sample_corpus(10, root_seed=7)
            if p.family == "cholesky"
        )
        bank = build_bank(platform)
        assert bank.actions[-1] == platform.scenario.total_nodes
        assert set(bank.lp) == set(bank.actions)
        assert all(bank.lp[a] > 0 for a in bank.actions)
        assert bank.true_means

    def test_msr_bank_lp_is_below_the_means(self):
        platform = next(
            p for p in sample_corpus(10, root_seed=7) if p.family == "msr"
        )
        bank = build_bank(platform)
        for a in bank.actions:
            assert bank.lp[a] <= bank.true_means[a]

    def test_bank_is_deterministic(self):
        platform = sample_platform(3, root_seed=5)
        a, b = build_bank(platform), build_bank(platform)
        assert a.actions == b.actions
        for n in a.actions:
            assert np.array_equal(a.samples[n], b.samples[n])


class TestCheckPlatform:
    def test_clean_platform_passes_every_property(self):
        outcome = check_platform(
            sample_platform(1, root_seed=7), fast_config()
        )
        assert outcome.failures == []
        assert set(outcome.ratios) == set(FAST_STRATEGIES)
        assert outcome.replay_checked

    def test_faulted_platform_passes_too(self):
        platform = next(
            p for p in sample_corpus(30, root_seed=7)
            if p.schedule is not None
        )
        outcome = check_platform(platform, fast_config())
        assert outcome.failures == []

    def test_tight_bound_forces_a_regret_failure(self):
        outcome = check_platform(
            sample_platform(0, root_seed=7),
            fast_config(regret_bound=1e-6, check_replay=False),
        )
        failed = {f.strategy for f in outcome.failures
                  if f.check == "regret-bound"}
        # Only the adaptive tier is held to the tight bound.
        assert failed
        assert all(
            base_strategy_name(s) in ADAPTIVE_BASES for s in failed
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PropertyConfig(iterations=0)
        with pytest.raises(ValueError):
            PropertyConfig(regret_bound=0.0)


class TestRunProperties:
    @pytest.fixture(scope="class")
    def report(self):
        corpus = sample_corpus(4, root_seed=7)
        return run_properties(corpus, fast_config())

    def test_smoke_corpus_is_green(self, report):
        assert report.ok
        assert len(report.outcomes) == 4

    def test_report_dict_is_canonical(self, report):
        payload = report.to_dict()
        assert payload["ok"] is True
        assert sorted(payload["strategies"]) == sorted(FAST_STRATEGIES)
        for entry in payload["strategies"].values():
            assert 0.0 <= entry["max_ratio"] <= 1.0 + 1e-9
            assert entry["failures"] == 0
        assert len(payload["scenarios"]) == 4
        # Serializable and stable under re-serialization.
        import json

        blob = json.dumps(payload, sort_keys=True)
        assert json.loads(blob) == json.loads(json.dumps(payload,
                                                         sort_keys=True))
