"""ScenarioBatch (one graph, many bindings) vs the naive sweep.

The batched sweep shares one graph build and one plan template across
every ``(n_fact, n_gen)`` configuration; this suite pins its promise:
every makespan -- and the full record stream of bound plans -- is
bit-identical to rebuilding the graph from scratch and running the
reference engine.
"""

import pytest

from repro.fuzz import sample_corpus
from repro.fuzz.properties import cholesky_space
from repro.geostat import IterationPlan
from repro.geostat.phases import build_iteration_graph
from repro.measure.batch import ScenarioBatch
from repro.measure.sweep import scenario_actions
from repro.platform import get_scenario
from repro.runtime import PerfModel, Simulator
from repro.workload import Workload

from .oracle import RESULT_FIELDS, two_d_plans


def _naive(cluster, workload, n_fact, n_gen):
    graph = build_iteration_graph(
        cluster, workload, IterationPlan(n_fact=n_fact, n_gen=n_gen)
    )
    return Simulator(cluster, PerfModel(), trace=True).run(graph)


@pytest.mark.parametrize("key", ["a", "b", "c"])
def test_batched_sweep_makespans_bit_identical(key):
    """Every result field of every swept configuration, not just makespan."""
    scenario = get_scenario(key)
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    batch = ScenarioBatch(cluster, workload)
    n_total = len(cluster)
    for n in scenario_actions(scenario, workload):
        # Flexible (n_gen = N) and rigid (n_gen = n_fact, the Figure 5
        # yellow line) configurations.
        for n_gen in (n_total, int(n)):
            ref = _naive(cluster, workload, int(n), n_gen)
            fast = batch.simulate(IterationPlan(n_fact=int(n), n_gen=n_gen))
            for name in RESULT_FIELDS:
                assert getattr(fast, name) == getattr(ref, name), (
                    key, int(n), n_gen, name)
            assert batch.measure(int(n), n_gen) == ref.makespan


def test_batched_2d_plans_bit_identical():
    """Figure 8 plans: ``n_gen`` moves independently of ``n_fact``."""
    scenario = get_scenario("f")
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    batch = ScenarioBatch(cluster, workload)
    for plan in two_d_plans(scenario):
        ref = _naive(cluster, workload, plan.n_fact, plan.n_gen)
        fast = batch.simulate(plan)
        for name in RESULT_FIELDS:
            assert getattr(fast, name) == getattr(ref, name), (plan, name)


def test_batched_records_match_reference():
    """Beyond makespans: bound plans replay the exact record streams."""
    scenario = get_scenario("b")
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    batch = ScenarioBatch(cluster, workload)
    n_total = len(cluster)
    from repro.runtime import FastSimulator

    sim = FastSimulator(cluster, PerfModel(), trace=True)
    for n_fact in (1, 2, n_total):
        ref = _naive(cluster, workload, n_fact, n_total)
        fast = sim.run_plan(batch.plan(n_fact, n_total))
        for name in RESULT_FIELDS:
            assert getattr(fast, name) == getattr(ref, name)
        assert fast.task_records == ref.task_records
        assert fast.transfer_records == ref.transfer_records


def test_batched_fuzz_corpus_matches_reference():
    """The fuzzer's Cholesky platforms: heterogeneous clusters, 8-12
    tiles, every node count ``build_bank`` sweeps."""
    configs = 0
    for platform in sample_corpus(50, 0):
        if platform.family != "cholesky":
            continue
        cluster = platform.build_cluster()
        workload, actions = cholesky_space(platform, cluster)
        batch = ScenarioBatch(cluster, workload)
        for n in actions:
            ref = _naive(cluster, workload, n, len(cluster))
            assert batch.measure(n) == ref.makespan, (platform.label, n)
            configs += 1
    assert configs >= 300


def test_plan_rejects_out_of_range_configs():
    scenario = get_scenario("a")
    cluster = scenario.build_cluster()
    batch = ScenarioBatch(cluster, Workload.from_name(scenario.workload))
    with pytest.raises(ValueError, match="out of range"):
        batch.plan(0)
    with pytest.raises(ValueError, match="out of range"):
        batch.plan(len(cluster) + 1)
