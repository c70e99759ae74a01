"""Tests for the per-phase sweep (Figure 2 bars)."""

import pytest

from repro.measure import sweep_phases
from repro.platform import get_scenario


@pytest.fixture(autouse=True)
def small(monkeypatch):
    monkeypatch.setenv("REPRO_TILES_101", "8")


class TestSweepPhases:
    @pytest.fixture(scope="class")
    def spans(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_TILES_101", "8")
            return sweep_phases(get_scenario("b"), actions=[2, 7, 14])

    def test_all_phases_present(self, spans):
        for n, phases in spans.items():
            assert {"generation", "factorization", "solve",
                    "determinant", "dot", "makespan"} <= set(phases)

    def test_spans_bounded_by_makespan(self, spans):
        for phases in spans.values():
            for name, span in phases.items():
                if name != "makespan":
                    assert span <= phases["makespan"] + 1e-9

    def test_generation_constant_ish_across_n_fact(self, spans):
        """Generation always uses all nodes, so its span barely moves."""
        gens = [p["generation"] for p in spans.values()]
        assert max(gens) <= 3.0 * min(gens) + 1e-9

    def test_spans_match_the_reference_engine(self, spans):
        """The batched sweep reproduces each plan's reference run."""
        from repro.geostat import IterationPlan
        from repro.geostat.phases import build_iteration_graph
        from repro.runtime import Simulator
        from repro.workload import Workload

        scenario = get_scenario("b")
        cluster = scenario.build_cluster()
        workload = Workload.from_name(scenario.workload)
        for n, phases in spans.items():
            ref = Simulator(cluster).run(build_iteration_graph(
                cluster, workload,
                IterationPlan(n_fact=n, n_gen=len(cluster)),
            ))
            expected = {p: e - s for p, (s, e) in ref.phase_spans.items()}
            expected["makespan"] = ref.makespan
            assert phases == expected

    def test_main_phases_dominate(self, spans):
        for phases in spans.values():
            main = max(phases["generation"], phases["factorization"])
            assert phases["dot"] <= phases["makespan"]
            assert main > 0
