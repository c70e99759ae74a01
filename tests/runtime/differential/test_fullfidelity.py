"""Full-fidelity differential runs: the paper's real tile counts.

The bounded suite pins both workloads to 16 tiles; this module re-runs
the oracle at ``REPRO_TILES_101=101`` / ``REPRO_TILES_128=128`` -- the
geometry every headline figure uses -- and additionally demands that
the downstream timeline export (the Chrome trace) is **byte-for-byte**
equal, since that artifact is what a human would diff when debugging a
schedule.

Marked ``fullfidelity`` and excluded from the default pytest run (see
``addopts`` in pyproject.toml); CI runs it in a dedicated job.
"""

import json

import pytest

from repro.geostat import IterationPlan
from repro.geostat.phases import build_iteration_graph
from repro.obs import timeline
from repro.platform import get_scenario
from repro.runtime import FastSimulator, PerfModel, Simulator
from repro.workload import Workload

from .oracle import assert_equivalent

pytestmark = pytest.mark.fullfidelity

#: One scenario per workload family: (key, factorization node counts).
CASES = [("a", (1, 2, 10)), ("c", (2, 20))]


def _full_tiles(monkeypatch):
    monkeypatch.setenv("REPRO_TILES_101", "101")
    monkeypatch.setenv("REPRO_TILES_128", "128")


@pytest.mark.parametrize("key,n_facts", CASES)
def test_fullfidelity_bit_identical(key, n_facts, monkeypatch):
    _full_tiles(monkeypatch)
    scenario = get_scenario(key)
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    assert workload.t in (101, 128)
    for n_fact in n_facts:
        graph = build_iteration_graph(
            cluster, workload, IterationPlan(n_fact=n_fact, n_gen=len(cluster))
        )
        assert_equivalent(graph, cluster)


def test_fullfidelity_timeline_exports_byte_identical(monkeypatch):
    _full_tiles(monkeypatch)
    scenario = get_scenario("a")
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    graph = build_iteration_graph(
        cluster, workload, IterationPlan(n_fact=2, n_gen=len(cluster))
    )
    ref = Simulator(cluster, PerfModel(), trace=True).run(graph)
    fast = FastSimulator(cluster, PerfModel(), trace=True).run(graph)
    assert fast.makespan == ref.makespan
    ref_chrome = json.dumps(timeline.chrome_trace(ref, cluster), sort_keys=True)
    fast_chrome = json.dumps(timeline.chrome_trace(fast, cluster), sort_keys=True)
    assert fast_chrome == ref_chrome
