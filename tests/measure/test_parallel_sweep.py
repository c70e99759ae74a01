"""Tests for parallel sweeps (worker-count invariance + duration cache).

The worker body itself (the pickle-safe scenario rebuild shared with the
evaluation harness) is unit-tested directly in
``tests/evaluate/test_parallel_harness.py::TestRebuildApp``.
"""

import numpy as np
import pytest

from repro.evaluate import DurationCache
from repro.measure import cached_bank, sweep_scenario
from repro.platform import get_scenario


@pytest.fixture(autouse=True)
def small(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TILES_101", "10")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestParallelSweep:
    def test_identical_to_serial(self):
        scenario = get_scenario("b")
        serial = sweep_scenario(scenario, actions=[2, 7, 14], augment=4,
                                seed=5, workers=1)
        parallel = sweep_scenario(scenario, actions=[2, 7, 14], augment=4,
                                  seed=5, workers=2)
        for n in serial.actions:
            assert np.allclose(serial.samples[n], parallel.samples[n])
            assert serial.true_means[n] == parallel.true_means[n]
            assert serial.lp[n] == pytest.approx(parallel.lp[n])

    def test_rigid_line_parallel(self):
        scenario = get_scenario("b")
        bank = sweep_scenario(scenario, actions=[3, 14], augment=3,
                              include_rigid=True, workers=2)
        assert set(bank.rigid) == {3, 14}

    def test_cached_bank_env_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        bank = cached_bank(get_scenario("b"), augment=3, seed=8)
        assert bank.actions[-1] == 14


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
        cache.reset_stats()
        sweep_scenario(scenario, actions=[2, 7], augment=3,
                       include_rigid=False, cache=cache)
        assert cache.misses == 0

    def test_cache_with_worker_pool(self):
        scenario = get_scenario("b")
        cache = DurationCache()
        serial = sweep_scenario(scenario, actions=[2, 7, 14], augment=4,
                                seed=5, workers=1)
        pooled = sweep_scenario(scenario, actions=[2, 7, 14], augment=4,
                                seed=5, workers=2, cache=cache)
        for n in serial.actions:
            assert np.array_equal(serial.samples[n], pooled.samples[n])
        assert len(cache) > 0
        # A second pooled sweep is served from the now-warm cache.
        cache.reset_stats()
        warm = sweep_scenario(scenario, actions=[2, 7, 14], augment=4,
                              seed=5, workers=2, cache=cache)
        assert cache.hits > 0 and cache.misses == 0
        for n in serial.actions:
            assert np.array_equal(serial.samples[n], warm.samples[n])

    def test_cached_bank_threads_cache_through(self, monkeypatch):
        cache = DurationCache()
        bank = cached_bank(get_scenario("b"), augment=3, seed=8, cache=cache)
        assert bank.actions[-1] == 14
        assert len(cache) == len(bank.actions)
