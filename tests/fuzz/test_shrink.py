"""Tests for the scenario shrinker and golden promotion lifecycle."""

import dataclasses
import json

import pytest

from repro.fuzz import (
    PropertyConfig,
    check_platform,
    golden_payload,
    load_golden,
    promote,
    replay_golden,
    sample_platform,
    shrink,
)
from repro.fuzz.shrink import candidates, golden_name, reproduce


@pytest.fixture(scope="module")
def forced():
    """A real failure, forced by an absurdly tight bound on UCB."""
    platform = sample_platform(0, root_seed=7)
    config = PropertyConfig(regret_bound=1e-6, strategies=("UCB",),
                            check_replay=False)
    outcome = check_platform(platform, config)
    failure = next(f for f in outcome.failures
                   if f.check == "regret-bound")
    return platform, failure, config


class TestCandidates:
    def test_multi_group_platform_offers_group_drops(self):
        platform = sample_platform(0, root_seed=7)
        steps = [s for s, _ in candidates(platform)]
        assert any(s.startswith("drop group") for s in steps)
        assert any(s.startswith("halve group") for s in steps)

    def test_cholesky_offers_tile_halving(self):
        platform = sample_platform(0, root_seed=7)
        assert platform.family == "cholesky"
        assert any(s == "halve tiles" for s, _ in candidates(platform))

    def test_msr_offers_workload_halving(self):
        platform = next(
            sample_platform(i, root_seed=7) for i in range(40)
            if sample_platform(i, root_seed=7).family == "msr"
        )
        steps = [s for s, _ in candidates(platform)]
        assert "halve maps" in steps or "halve reduces" in steps

    def test_faulted_platform_offers_fault_stripping(self):
        platform = next(
            sample_platform(i, root_seed=7) for i in range(40)
            if sample_platform(i, root_seed=7).schedule is not None
        )
        steps = [s for s, _ in candidates(platform)]
        assert any(s.startswith("strip fault") for s in steps)
        assert "drop schedule" in steps

    def test_candidates_are_valid_platforms(self):
        platform = sample_platform(4, root_seed=7)
        for step, candidate in candidates(platform):
            assert candidate.scenario.counts
            assert candidate != platform


class TestShrink:
    def test_reproduce_confirms_a_real_failure(self, forced):
        platform, failure, config = forced
        again = reproduce(platform, failure, config)
        assert again is not None
        assert again.strategy == failure.strategy
        assert again.check == failure.check

    def test_reproduce_rejects_a_healthy_config(self, forced):
        platform, failure, config = forced
        healthy = dataclasses.replace(config, regret_bound=1.0)
        assert reproduce(platform, failure, healthy) is None

    def test_shrink_reduces_and_still_fails(self, forced):
        platform, failure, config = forced
        result = shrink(platform, failure, config)
        assert result.shrunk
        assert (
            result.platform.scenario.total_nodes
            < platform.scenario.total_nodes
        )
        # The minimized platform still reproduces the failure.
        assert reproduce(result.platform, result.failure,
                         config) is not None


class TestGoldens:
    def test_promote_writes_a_replayable_golden(self, forced, tmp_path):
        platform, failure, config = forced
        path = promote(platform, failure, config, directory=tmp_path)
        assert path.exists()
        payload = load_golden(path)
        assert payload["expect"] == "pass"
        assert payload["failure"]["strategy"] == "UCB"
        # The committed expectation is not yet met: replay reproduces.
        assert replay_golden(path)

    def test_fixed_golden_replays_green(self, forced, tmp_path):
        platform, failure, config = forced
        path = promote(platform, failure, config, directory=tmp_path)
        payload = json.loads(path.read_text())
        # Simulate the fix: the mis-calibrated bound is corrected.
        payload["config"]["regret_bound"] = 1.0
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        assert replay_golden(path) == []

    def test_golden_name_is_deterministic_and_descriptive(self, forced):
        platform, failure, _ = forced
        name = golden_name(platform, failure)
        assert name == golden_name(platform, failure)
        assert name.startswith("fz_cholesky_ucb_regret-bound_")
        assert name.endswith(".json")

    def test_load_golden_validates_schema(self, forced, tmp_path):
        platform, failure, config = forced
        payload = golden_payload(platform, failure, config)
        payload["schema"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_golden(bad)

    def test_load_golden_rejects_an_unknown_check(self, forced, tmp_path):
        """A golden naming no current property would replay vacuously."""
        platform, failure, config = forced
        payload = golden_payload(platform, failure, config)
        payload["failure"]["check"] = "no-such-check"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unknown check"):
            load_golden(bad)

    def test_load_golden_requires_the_core_fields(self, tmp_path):
        bad = tmp_path / "incomplete.json"
        bad.write_text(json.dumps({"schema": 1, "platform": {}}))
        with pytest.raises(ValueError):
            load_golden(bad)
