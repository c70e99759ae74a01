"""Differential oracle over the locked scenario table (a..p, 16 tiles).

Each scenario runs the full generation + factorization + solve iteration
graph at several factorization node counts (smallest, 2, half, all) and
the fast engine must reproduce the reference bit for bit -- results,
record streams and obs trace bytes (see the package oracle).
"""

import pytest

from repro.geostat import IterationPlan
from repro.geostat.phases import build_iteration_graph
from repro.platform import get_scenario
from repro.workload import Workload

from .oracle import assert_equivalent

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


def test_fifo_policy_bit_identical():
    """The oracle holds under the alternative scheduling policy too,
    and with duration jitter (same RNG draw order) under both policies.
    """
    scenario = get_scenario("a")
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    graph = build_iteration_graph(
        cluster, workload, IterationPlan(n_fact=2, n_gen=len(cluster))
    )
    assert_equivalent(graph, cluster, policy="fifo")
    for policy in ("priority", "fifo"):
        assert_equivalent(
            graph, cluster, policy=policy, jitter_sd=0.2, seed=3
        )
