"""The reference engine stays the authority over ``perfbench/expected.json``.

Every perfbench run checks the makespans it sweeps with the production
engine against the committed ``makespans`` table.  This test rebuilds
each committed ``(scenario, n)`` iteration graph at the file's tile
counts and requires the reference ``Simulator`` to reproduce the
committed value exactly, so the table is a reference-engine result and
not merely whatever the fast engine printed last.

Marked ``fullfidelity`` (93 graphs at 40/48 tiles, about a minute on a
2-vCPU host); CI runs it in the full-fidelity job.
"""

import json
from pathlib import Path

import pytest

from repro.geostat import IterationPlan
from repro.geostat.phases import build_iteration_graph
from repro.platform import get_scenario
from repro.runtime import Simulator
from repro.workload import Workload

pytestmark = pytest.mark.fullfidelity

EXPECTED = Path(__file__).resolve().parents[3] / "perfbench" / "expected.json"


def test_reference_reproduces_committed_makespans(monkeypatch):
    expected = json.loads(EXPECTED.read_text())
    # Overrides the suite's 16-tile autouse pin.
    for workload, tiles in expected["tiles"].items():
        monkeypatch.setenv(f"REPRO_TILES_{workload}", tiles)
    for key, by_n in sorted(expected["makespans"].items()):
        scenario = get_scenario(key)
        cluster = scenario.build_cluster()
        workload = Workload.from_name(scenario.workload)
        assert str(workload.t) == expected["tiles"][scenario.workload]
        sim = Simulator(cluster)
        for n, makespan in sorted(by_n.items(), key=lambda kv: int(kv[0])):
            plan = IterationPlan(n_fact=int(n), n_gen=len(cluster))
            graph = build_iteration_graph(cluster, workload, plan)
            assert sim.run(graph).makespan == makespan, (key, n)
