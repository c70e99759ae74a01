"""Tests for sweeps through the duration cache and the bank-file cache."""

import json

import numpy as np
import pytest

from repro.evaluate import DurationCache
from repro.measure import MeasurementBank, cached_bank, sweep_scenario
from repro.platform import get_scenario


@pytest.fixture(autouse=True)
def small(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TILES_101", "10")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestSweepDurationCache:
    def test_warm_cache_reproduces_bank_bit_exactly(self):
        scenario = get_scenario("b")
        cache = DurationCache()
        kwargs = dict(actions=[2, 7, 14], augment=4, seed=5,
                      include_rigid=True)
        cold = sweep_scenario(scenario, cache=cache, **kwargs)
        assert cache.misses > 0 and cache.hits == 0
        warm = sweep_scenario(scenario, cache=cache, **kwargs)
        assert cache.hits > 0
        plain = sweep_scenario(scenario, **kwargs)
        for n in cold.actions:
            assert np.array_equal(cold.samples[n], warm.samples[n])
            assert np.array_equal(plain.samples[n], warm.samples[n])
            assert plain.true_means[n] == warm.true_means[n]
            assert plain.rigid[n] == warm.rigid[n]

    def test_cache_shared_across_rigid_variants(self):
        """The flexible sweep warms the plain sweep's lookups."""
        scenario = get_scenario("b")
        cache = DurationCache()
        sweep_scenario(scenario, actions=[2, 7], augment=3,
                       include_rigid=True, cache=cache)
        misses = cache.misses
        sweep_scenario(scenario, actions=[2, 7], augment=3,
                       include_rigid=False, cache=cache)
        assert cache.misses == misses

    def test_cached_bank_threads_cache_through(self, monkeypatch):
        cache = DurationCache()
        bank = cached_bank(get_scenario("b"), augment=3, seed=8, cache=cache)
        assert bank.actions[-1] == 14
        assert len(cache) == len(bank.actions)


class TestCachedBankFile:
    def test_truncated_bank_file_is_rebuilt(self, tmp_path, capsys):
        scenario = get_scenario("b")
        cached_bank(scenario, augment=3, seed=8)
        (path,) = tmp_path.glob("bank_v*_b_*.json")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        rebuilt = cached_bank(scenario, augment=3, seed=8)
        assert "unreadable cached bank" in capsys.readouterr().err
        fresh = sweep_scenario(scenario, augment=3, seed=8)
        assert rebuilt.actions == fresh.actions
        for n in fresh.actions:
            assert np.array_equal(rebuilt.samples[n], fresh.samples[n])
            assert rebuilt.true_means[n] == fresh.true_means[n]
            assert rebuilt.lp[n] == fresh.lp[n]
        # The file was rewritten whole: it now loads without a warning.
        assert path.read_text() == text
        cached_bank(scenario, augment=3, seed=8)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda payload: [],
            lambda payload: {**payload, "samples": list(payload["samples"].values())},
            lambda payload: {**payload, "samples": dict.fromkeys(payload["samples"], 1.0)},
        ],
        ids=["list", "list-samples", "scalar-samples"],
    )
    def test_wrong_shape_bank_file_is_rebuilt(self, tmp_path, capsys, corrupt):
        """Valid JSON of another shape is unreadable too, not fatal."""
        scenario = get_scenario("b")
        cached_bank(scenario, augment=3, seed=8)
        (path,) = tmp_path.glob("bank_v*_b_*.json")
        text = path.read_text()
        path.write_text(json.dumps(corrupt(json.loads(text))))
        rebuilt = cached_bank(scenario, augment=3, seed=8)
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "unreadable cached bank" in err
        assert path.read_text() == text
        assert rebuilt.actions == MeasurementBank.load(path).actions
