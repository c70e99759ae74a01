"""Integration tests crossing every layer of the stack.

Small tile counts keep these fast; they exercise the exact paths the
benchmark harness uses.
"""

import numpy as np
import pytest

from repro import ExaGeoStat, Workload, get_scenario
from repro.distribution import LPBoundCalculator
from repro.evaluate import (
    evaluate_scenario,
    figure4_snapshots,
    strategy_space_for,
)
from repro.geostat import IterationPlan
from repro.measure import for_mode, sweep_scenario
from repro.strategies import GPDiscontinuousStrategy, make_strategy, strategy_names


@pytest.fixture(autouse=True)
def small_tiles(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TILES_101", "12")
    monkeypatch.setenv("REPRO_TILES_128", "12")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestSweepToStrategyPipeline:
    @pytest.fixture(scope="class")
    def bank(self):
        # Class-scoped: env fixture above is function-scoped, so re-set here.
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_TILES_101", "12")
            return sweep_scenario(get_scenario("b"), augment=10, seed=5)

    def test_lp_is_lower_bound_everywhere(self, bank):
        for n in bank.actions:
            assert bank.lp[n] <= bank.true_means[n] + 1e-9

    def test_every_strategy_runs_127_iterations(self, bank):
        rng = np.random.default_rng(0)
        space = bank.action_space()
        for name in strategy_names():
            strategy = make_strategy(name, space, seed=0)
            for _ in range(127):
                n = strategy.propose()
                strategy.observe(n, bank.resample(n, rng))
            assert strategy.iteration == 127

    def test_evaluation_orders_baselines(self, bank):
        ev = evaluate_scenario(
            bank, strategies=("UCB-struct", "GP-discontinuous"),
            iterations=60, reps=4,
        )
        assert ev.oracle_mean <= ev.all_nodes_mean
        for s in ev.summaries:
            # No strategy can beat the oracle or be absurdly bad.
            assert s.mean_total >= ev.oracle_mean * 0.98
            assert s.mean_total <= ev.all_nodes_mean * 1.6

    def test_figure4_replay_consistent_with_bank(self, bank):
        snaps = figure4_snapshots(bank, "GP-discontinuous", iterations=(20,))
        assert sum(snaps[0].counts.values()) == 19


class TestOnlineApplication:
    def test_gp_disc_online_converges_near_best(self):
        scenario = get_scenario("b")
        cluster = scenario.build_cluster()
        workload = Workload.from_name("101")
        noise = for_mode("Simul")
        app = ExaGeoStat(
            cluster, workload, noise=lambda d, rng: noise.sample(d, rng), seed=2
        )
        strategy = GPDiscontinuousStrategy(strategy_space_for(scenario, workload), seed=2)
        result = app.run(strategy, 50)

        # Determine the true best from the deterministic cache.
        app2 = ExaGeoStat(cluster, workload)
        durations = {
            n: app2.measure(n)
            for n in strategy.space.actions
        }
        best = min(durations, key=durations.get)
        late_choices = result.chosen_counts[-10:]
        late_mean = np.mean([durations[n] for n in late_choices])
        assert late_mean <= durations[best] * 1.25
        assert late_mean <= durations[len(cluster)] * 1.05

    def test_phase_structure_consistent_across_plans(self):
        scenario = get_scenario("c")
        cluster = scenario.build_cluster()
        workload = Workload.from_name("128")
        app = ExaGeoStat(cluster, workload)
        for n in (5, len(cluster)):
            sim = app.simulate(IterationPlan(n_fact=n, n_gen=len(cluster)))
            assert set(sim.phase_spans) == {
                "generation", "factorization", "solve", "determinant", "dot"
            }
            # Solve/det/dot are cheap relative to the two main phases.
            main = sim.phase_duration("factorization")
            assert sim.phase_spans["dot"][1] <= sim.makespan + 1e-9
            assert main > 0

    def test_lp_tracks_aggregate_speed(self):
        """Doubling every node's speed halves the LP bound."""
        import dataclasses

        scenario = get_scenario("m")
        workload = Workload.from_name("128")
        cluster = scenario.build_cluster()
        lp1 = LPBoundCalculator(cluster, workload).fact(10)

        from repro.platform import Cluster

        nt = cluster[0].node_type
        fast_nt = dataclasses.replace(
            nt, cpu_gflops=nt.cpu_gflops * 2, gpu_gflops=nt.gpu_gflops * 2
        )
        fast = Cluster([(fast_nt, 64)], network=cluster.network)
        lp2 = LPBoundCalculator(fast, workload).fact(10)
        assert lp2 == pytest.approx(lp1 / 2, rel=1e-6)
