"""Tests for the Figure 7 overhead measurement."""

import hashlib
import json

import pytest

from repro.evaluate import measure_overhead, strategy_space_for
from repro.platform import get_scenario


@pytest.fixture(autouse=True)
def small_workload(monkeypatch):
    monkeypatch.setenv("REPRO_TILES_101", "8")


class TestStrategySpace:
    def test_space_has_lp(self):
        space = strategy_space_for(get_scenario("b"))
        assert space.lp_bound is not None
        assert space.lp_bound(4) > 0
        assert space.n_total == 14


class TestOverhead:
    @pytest.fixture(scope="class")
    def result(self):
        return measure_overhead("b", reps=2, iterations=12)

    def test_shape(self, result):
        assert result.per_iteration.shape == (2, 12)
        assert result.iteration_durations.shape == (2, 12)

    def test_overheads_nonnegative(self, result):
        assert (result.per_iteration >= 0).all()

    def test_relative_overhead_small(self, result):
        """Strategy cost is negligible vs iteration time (paper: <1%)."""
        assert result.relative_overhead < 0.05

    def test_steady_state_defined(self, result):
        assert result.steady_state_mean >= 0
        assert len(result.mean_per_iteration) == 12


class TestSharedMemo:
    #: sha256 of the durations and chosen arms of the call below, as
    #: recorded when every repetition built its own application.
    DIGEST = "5538bd5b7c1768f20e9255a8df5d6fc3e6e5614e49f42af778ee87c0c936834a"

    def test_each_visited_arm_is_simulated_once(self, monkeypatch):
        """One template compile for the driver, one engine run per
        distinct plan across every repetition, same numbers."""
        from repro.geostat import ExaGeoStat
        from repro.measure import batch
        from repro.runtime import simfast

        compiles, runs, arms = [], [], []
        compile_template = simfast.compile_template
        run_plan = simfast.FastSimulator.run_plan
        run = ExaGeoStat.run

        def counting_compile(*args):
            compiles.append(args)
            return compile_template(*args)

        def counting_run_plan(self, plan):
            runs.append(plan)
            return run_plan(self, plan)

        def recording_run(self, controller, iterations):
            result = run(self, controller, iterations)
            arms.append(result.chosen_counts)
            return result

        monkeypatch.setattr(simfast, "compile_template", counting_compile)
        monkeypatch.setattr(batch, "compile_template", counting_compile)
        monkeypatch.setattr(simfast.FastSimulator, "run_plan", counting_run_plan)
        monkeypatch.setattr(ExaGeoStat, "run", recording_run)

        result = measure_overhead("b", reps=4, iterations=20)
        assert len(compiles) == 1
        assert len(runs) == len({n for rep in arms for n in rep})
        payload = json.dumps(
            {"durations": result.iteration_durations.tolist(), "arms": arms},
            sort_keys=True,
        )
        assert hashlib.sha256(payload.encode()).hexdigest() == self.DIGEST
