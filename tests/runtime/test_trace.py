"""Unit tests for trace analysis (Figure 1 substrate)."""

import numpy as np
import pytest

from repro.platform import Cluster, NetworkModel, NodeType
from repro.runtime import (
    DataRegistry,
    PerfModel,
    Simulator,
    TaskGraph,
    render_ascii,
    utilization_timeline,
)

UNIT = NodeType(
    name="unit", site="SD", category="S", cpu_desc="", gpu_desc="",
    cpu_gflops=1.0, gpus=0, gpu_gflops=0.0, nic_gbps=8.0, memory_gb=1.0,
    cpu_slots=1,
)
PM = PerfModel(efficiency={("t", "cpu"): 1.0}, overhead_s=0.0)
NET = NetworkModel(latency_s=0.0, efficiency=1.0)


@pytest.fixture
def traced_result():
    cluster = Cluster([(UNIT, 2)], network=NET)
    g = TaskGraph(DataRegistry())
    a = g.registry.register("a", 0, home=0)
    b = g.registry.register("b", 0, home=1)
    g.submit("t", "generation", 1e9, writes=[a])
    g.submit("t", "generation", 1e9, writes=[b])
    g.submit("t", "factorization", 1e9, reads=[a], writes=[a])
    res = Simulator(cluster, PM, trace=True).run(g)
    return cluster, res


class TestUtilizationTimeline:
    def test_shape(self, traced_result):
        cluster, res = traced_result
        tl = utilization_timeline(res, cluster, nbins=10)
        assert tl.utilization.shape == (2, 2, 10)
        assert len(tl.bins) == 11

    def test_busy_fraction_bounded(self, traced_result):
        cluster, res = traced_result
        tl = utilization_timeline(res, cluster, nbins=10)
        assert np.all(tl.utilization >= 0.0)
        assert np.all(tl.utilization <= 1.0 + 1e-9)

    def test_total_busy_time_conserved(self, traced_result):
        """Sum over bins of (busy fraction * bin width * workers) equals
        the total task execution time on each node."""
        cluster, res = traced_result
        tl = utilization_timeline(res, cluster, nbins=16)
        width = tl.bins[1] - tl.bins[0]
        for node in range(2):
            expected = sum(
                r.end - r.start for r in res.task_records if r.node == node
            )
            measured = tl.utilization[node].sum() * width  # 1 worker per node
            assert measured == pytest.approx(expected, rel=1e-9)

    def test_node0_busy_both_phases(self, traced_result):
        cluster, res = traced_result
        tl = utilization_timeline(res, cluster, nbins=4)
        # Node 0 runs generation in [0,1) and factorization in [1,2).
        gen = tl.phases.index("generation")
        fact = tl.phases.index("factorization")
        assert tl.utilization[0, gen, 0] == pytest.approx(1.0)
        assert tl.utilization[0, fact, -1] == pytest.approx(1.0)

    def test_requires_trace(self, traced_result):
        cluster, _ = traced_result
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 0, home=0)
        g.submit("t", "p", 1e9, writes=[a])
        res = Simulator(cluster, PM).run(g)  # no trace
        with pytest.raises(ValueError, match="trace"):
            utilization_timeline(res, cluster)

    def test_bad_nbins(self, traced_result):
        cluster, res = traced_result
        with pytest.raises(ValueError):
            utilization_timeline(res, cluster, nbins=0)


@pytest.fixture
def cross_node_result():
    """One cross-node read: a (home 0) feeds a task running on node 1."""
    cluster = Cluster([(UNIT, 2)], network=NET)
    g = TaskGraph(DataRegistry())
    a = g.registry.register("a", 1e9, home=0)
    b = g.registry.register("b", 8.0, home=1)
    g.submit("t", "generation", 1e9, writes=[a])
    g.submit("t", "factorization", 1e9, reads=[a], writes=[b])
    res = Simulator(cluster, PM, trace=True).run(g)
    return cluster, res


class TestTransferLanes:
    def test_shape_and_bounds(self, cross_node_result):
        cluster, res = cross_node_result
        assert res.transfer_records  # the fixture must actually transfer
        tl = utilization_timeline(res, cluster, nbins=12)
        assert tl.transfers is not None
        assert tl.transfers.shape == (2, 2, 12)
        assert np.all(tl.transfers >= 0.0)
        assert np.all(tl.transfers <= 1.0 + 1e-9)

    def test_send_and_recv_sides(self, cross_node_result):
        cluster, res = cross_node_result
        tl = utilization_timeline(res, cluster, nbins=12)
        assert tl.transfers[0, 0].sum() > 0.0  # node 0 sends
        assert tl.transfers[1, 1].sum() > 0.0  # node 1 receives
        assert tl.transfers[0, 1].sum() == 0.0  # nothing arrives at node 0
        assert tl.transfers[1, 0].sum() == 0.0  # node 1 sends nothing

    def test_transfer_time_conserved(self, cross_node_result):
        cluster, res = cross_node_result
        tl = utilization_timeline(res, cluster, nbins=16)
        width = tl.bins[1] - tl.bins[0]
        streams = cluster.network.streams
        total = sum(r.end - r.start for r in res.transfer_records)
        assert tl.transfers[0, 0].sum() * width * streams == (
            pytest.approx(total, rel=1e-9)
        )
        assert tl.node_comm(1).sum() * width * streams * 2.0 == (
            pytest.approx(total, rel=1e-9)
        )

    def test_opt_out(self, cross_node_result):
        cluster, res = cross_node_result
        tl = utilization_timeline(res, cluster, nbins=8,
                                  include_transfers=False)
        assert tl.transfers is None
        with pytest.raises(ValueError, match="transfer"):
            tl.node_comm(0)


class TestWorkerField:
    def test_simulator_records_lane_indices(self, traced_result):
        _, res = traced_result
        for rec in res.task_records:
            assert rec.worker == 0  # single-slot nodes: only lane 0

    def test_concurrent_tasks_get_distinct_lanes(self):
        duo = NodeType(
            name="duo", site="SD", category="S", cpu_desc="", gpu_desc="",
            cpu_gflops=2.0, gpus=0, gpu_gflops=0.0, nic_gbps=8.0,
            memory_gb=1.0, cpu_slots=2,
        )
        cluster = Cluster([(duo, 1)], network=NET)
        g = TaskGraph(DataRegistry())
        for i in range(2):
            h = g.registry.register(f"h{i}", 8.0, home=0)
            g.submit("t", "generation", 1e9, writes=[h])
        res = Simulator(cluster, PM, trace=True).run(g)
        assert sorted(r.worker for r in res.task_records) == [0, 1]


class TestRendering:
    def test_ascii_contains_rows_and_legend(self, traced_result):
        cluster, res = traced_result
        tl = utilization_timeline(res, cluster, nbins=20)
        art = render_ascii(tl, cluster)
        assert "unit-0" in art
        assert "legend" in art
        assert "G" in art or "g" in art  # generation glyph somewhere
