"""Tests for scenario sweeps (on a reduced workload for speed)."""

import numpy as np
import pytest

from repro.measure import cached_bank, scenario_actions, sweep_2d, sweep_scenario
from repro.platform import get_scenario


@pytest.fixture(autouse=True)
def small_workload(monkeypatch, tmp_path):
    """Shrink tile counts and isolate the cache for fast sweeps."""
    monkeypatch.setenv("REPRO_TILES_101", "8")
    monkeypatch.setenv("REPRO_TILES_128", "8")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestScenarioActions:
    def test_covers_up_to_n(self):
        scenario = get_scenario("b")
        actions = scenario_actions(scenario)
        assert actions[-1] == scenario.total_nodes
        assert actions[0] >= 2


class TestSweep:
    def test_bank_structure(self):
        scenario = get_scenario("b")
        bank = sweep_scenario(scenario, actions=[2, 5, 9, 14], augment=5)
        assert bank.actions == (2, 5, 9, 14)
        assert all(len(bank.samples[n]) == 5 for n in bank.actions)
        assert all(bank.lp[n] > 0 for n in bank.actions)
        assert bank.group_boundaries == (2, 8, 14)

    def test_lp_below_measured(self):
        """The LP is a lower bound: below the deterministic simulation."""
        scenario = get_scenario("b")
        bank = sweep_scenario(scenario, actions=[3, 7, 14], augment=3)
        for n in bank.actions:
            assert bank.lp[n] <= bank.true_means[n] + 1e-9

    def test_rigid_line_included_on_request(self):
        scenario = get_scenario("b")
        bank = sweep_scenario(scenario, actions=[3, 14], augment=3, include_rigid=True)
        assert set(bank.rigid) == {3, 14}
        assert all(v > 0 for v in bank.rigid.values())

    def test_rigid_sweep_simulates_each_plan_once(self, monkeypatch):
        """The rigid (N, N) plan is the flexible one at n = N: one run.

        The rigid line still equals the reference engine's makespans.
        """
        from repro.geostat import IterationPlan
        from repro.geostat.phases import build_iteration_graph
        from repro.measure.batch import ScenarioBatch
        from repro.runtime import Simulator
        from repro.workload import Workload

        calls = []
        simulate = ScenarioBatch.simulate

        def counting(self, plan):
            calls.append((plan.n_fact, plan.n_gen))
            return simulate(self, plan)

        monkeypatch.setattr(ScenarioBatch, "simulate", counting)
        scenario = get_scenario("b")
        actions = (3, 7, 14)
        bank = sweep_scenario(
            scenario, actions=actions, augment=3, include_rigid=True
        )
        assert len(calls) == 2 * len(actions) - 1
        assert len(set(calls)) == len(calls)
        cluster = scenario.build_cluster()
        workload = Workload.from_name(scenario.workload)
        assert bank.rigid == {
            n: Simulator(cluster).run(build_iteration_graph(
                cluster, workload, IterationPlan(n_fact=n, n_gen=n)
            )).makespan
            for n in actions
        }

    def test_deterministic_given_seed(self):
        scenario = get_scenario("b")
        b1 = sweep_scenario(scenario, actions=[4, 14], augment=4, seed=1)
        b2 = sweep_scenario(scenario, actions=[4, 14], augment=4, seed=1)
        assert np.allclose(b1.samples[4], b2.samples[4])


class TestCache:
    def test_cache_roundtrip(self, tmp_path):
        scenario = get_scenario("b")
        b1 = cached_bank(scenario, augment=3, seed=9)
        b2 = cached_bank(scenario, augment=3, seed=9)
        assert b1.actions == b2.actions
        assert np.allclose(b1.samples[b1.actions[0]], b2.samples[b2.actions[0]])

    def test_cache_file_created(self, tmp_path):
        scenario = get_scenario("b")
        cached_bank(scenario, augment=3, seed=9)
        assert list(tmp_path.glob("bank_*.json"))


class TestSweep2D:
    def test_grid_shape_and_positivity(self):
        scenario = get_scenario("b")
        grid, gens, facts = sweep_2d(
            scenario, gen_counts=[4, 14], fact_counts=[2, 7, 14]
        )
        assert grid.shape == (2, 3)
        assert np.all(grid > 0)
