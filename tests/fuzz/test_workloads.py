"""Tests for the map/shuffle/reduce workload family."""

import pytest

from repro.fuzz import (
    MSR_PHASES,
    MapShuffleReduceWorkload,
    MSRApp,
    build_msr_graph,
    msr_perfmodel,
)
from repro.platform import get_scenario


@pytest.fixture(scope="module")
def cluster():
    return get_scenario("b").build_cluster()  # 2L-6M-6S, 14 nodes


def small_workload(**overrides):
    base = dict(maps=8, reduces=4, record_mb=128.0, map_flops=5e11,
                reduce_flops=2e12, skew=3.0)
    base.update(overrides)
    return MapShuffleReduceWorkload(**base)


class TestWorkload:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_workload(maps=0)
        with pytest.raises(ValueError):
            small_workload(reduces=0)
        with pytest.raises(ValueError):
            small_workload(record_mb=0.0)
        with pytest.raises(ValueError):
            small_workload(skew=0.5)

    def test_partition_weights_carry_the_skew(self):
        w = small_workload(reduces=4, skew=3.0)
        weights = w.partition_weights
        assert sum(weights) == pytest.approx(1.0)
        assert weights[0] == pytest.approx(3.0 * weights[1])
        assert len(set(weights[1:])) == 1

    def test_balanced_pipeline_has_uniform_weights(self):
        w = small_workload(skew=1.0)
        assert len(set(w.partition_weights)) == 1

    def test_total_flops_accounts_every_phase(self):
        w = small_workload()
        assert w.total_flops == pytest.approx(
            8 * 5e11 + 0.1 * 2e12 + 2e12 + 1e7 * 4
        )


class TestGraph:
    def test_task_count_and_phases(self, cluster):
        w = small_workload()
        graph = build_msr_graph(cluster, w, 6)
        tasks = graph.tasks
        # maps + one merge and one reduce per partition + one collect.
        assert len(tasks) == w.maps + 2 * w.reduces + 1
        by_phase = {}
        for t in tasks:
            by_phase.setdefault(t.phase, 0)
            by_phase[t.phase] += 1
        assert set(by_phase) == set(MSR_PHASES)
        assert by_phase["map"] == w.maps
        assert by_phase["shuffle"] == w.reduces
        assert by_phase["reduce"] == w.reduces
        assert by_phase["collect"] == 1

    def test_n_bounds_validated(self, cluster):
        w = small_workload()
        with pytest.raises(ValueError):
            build_msr_graph(cluster, w, 0)
        with pytest.raises(ValueError):
            build_msr_graph(cluster, w, len(cluster) + 1)

    def test_simulation_runs_and_uses_only_n_nodes(self, cluster):
        app = MSRApp(cluster, small_workload(), trace=True)
        result = app.simulate(4)
        assert result.makespan > 0
        assert all(t.node < 4 for t in result.task_records)

    def test_shuffle_triggers_transfers(self, cluster):
        # The all-to-all: merge tasks read slices homed on other nodes.
        app = MSRApp(cluster, small_workload())
        result = app.simulate(6)
        assert result.transfer_count > 0
        assert result.comm_bytes > 0

    def test_skew_makes_partition_zero_the_straggler(self):
        # Homogeneous cluster (64L) so the tail is pure skew, not node
        # speed differences.
        homogeneous = get_scenario("m").build_cluster()
        app = MSRApp(homogeneous, small_workload(skew=5.0), trace=True)
        result = app.simulate(6)
        reduces = sorted(
            (t for t in result.task_records if t.phase == "reduce"),
            key=lambda t: t.end - t.start,
        )
        straggler, rest = reduces[-1], reduces[:-1]
        assert (straggler.end - straggler.start) > 2 * max(
            t.end - t.start for t in rest
        )
        # The collect depends on every reduce, so it starts after the
        # straggler finishes: the tail is dependency-driven.
        collect = next(
            t for t in result.task_records if t.phase == "collect"
        )
        assert collect.start >= straggler.end - 1e-9

    def test_perfmodel_covers_all_kernels(self):
        model = msr_perfmodel()
        for kernel in ("mapk", "mergek", "reducek", "collectk"):
            assert any(k == kernel for k, _ in model.efficiency)


class TestApp:
    def test_measure_is_the_deterministic_makespan(self, cluster):
        app = MSRApp(cluster, small_workload())
        assert app.measure(5) == app.measure(5)
        assert app.measure(5) == app.simulate(5).makespan

    def test_lp_bound_is_a_decreasing_lower_bound(self, cluster):
        app = MSRApp(cluster, small_workload())
        bounds = [app.lp_bound(n) for n in range(2, len(cluster) + 1)]
        assert all(b > 0 for b in bounds)
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))
        for n in (2, 6, len(cluster)):
            assert app.lp_bound(n) <= app.simulate(n).makespan
