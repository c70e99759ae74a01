"""Differential oracle over the locked scenario table (a..p, 16 tiles).

Each scenario runs the full generation + factorization + solve iteration
graph at several factorization node counts (smallest, 2, half, all) and
the fast engine must reproduce the reference bit for bit -- results,
record streams and obs trace bytes (see the package oracle).  The
mixed-precision graphs of ``mixed_precision_tradeoff`` and the 2-D plans
of the Figure 8 sweep (``n_gen`` neither ``n_fact`` nor N) get the same
check.
"""

import pytest

from repro.geostat import IterationPlan
from repro.geostat.phases import build_iteration_graph
from repro.linalg import PrecisionPolicy
from repro.platform import get_scenario
from repro.workload import Workload

from .oracle import assert_equivalent, two_d_plans

SCENARIO_KEYS = tuple("abcdefghijklmnop")


def _configs(n_total):
    """Factorization node counts exercised per scenario."""
    return sorted({1, 2, n_total // 2, n_total} - {0})


@pytest.mark.parametrize("key", SCENARIO_KEYS)
def test_scenario_bit_identical(key):
    scenario = get_scenario(key)
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    n_total = len(cluster)
    for n_fact in _configs(n_total):
        graph = build_iteration_graph(
            cluster, workload, IterationPlan(n_fact=n_fact, n_gen=n_total)
        )
        assert_equivalent(graph, cluster)


@pytest.mark.parametrize("bands", ["1", "2", "t"])
def test_mixed_precision_bit_identical(bands):
    """``mixed_precision_tradeoff``'s graphs: scenario c, its default plan."""
    scenario = get_scenario("c")
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    dp_bands = workload.t if bands == "t" else int(bands)
    plan = IterationPlan(n_fact=max(2, len(cluster) // 2), n_gen=len(cluster))
    graph = build_iteration_graph(
        cluster, workload, plan,
        precision_policy=PrecisionPolicy(dp_bands=dp_bands),
    )
    assert_equivalent(graph, cluster)


def test_2d_plans_bit_identical():
    scenario = get_scenario("f")
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    plans = two_d_plans(scenario)
    assert plans
    for plan in plans:
        graph = build_iteration_graph(cluster, workload, plan)
        assert_equivalent(graph, cluster)
