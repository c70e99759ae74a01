"""Unit tests for the discrete-event simulator.

Every test class runs on the reference ``Simulator``; its ``...Fast``
subclass runs the same tests on the production ``FastSimulator``.
"""

import pytest

from repro.platform import Cluster, NetworkModel, NodeType
from repro.runtime import (
    DataRegistry,
    FastSimulator,
    PerfModel,
    Placement,
    Simulator,
    TaskGraph,
)

# A deliberately simple node type: 1 CPU slot of 1 GFlop/s, no GPU, so a
# task of F flops runs in exactly F nanoseconds-per-flop... i.e. F / 1e9 s.
UNIT = NodeType(
    name="unit", site="SD", category="S", cpu_desc="", gpu_desc="",
    cpu_gflops=1.0, gpus=0, gpu_gflops=0.0, nic_gbps=8.0, memory_gb=1.0,
    cpu_slots=1,
)

GPU_NODE = NodeType(
    name="gnode", site="SD", category="L", cpu_desc="", gpu_desc="g",
    cpu_gflops=1.0, gpus=1, gpu_gflops=10.0, nic_gbps=8.0, memory_gb=1.0,
    cpu_slots=1,
)

# Exact model: no overhead, unit efficiency everywhere.
PM = PerfModel(
    efficiency={
        ("t", "cpu"): 1.0, ("t", "gpu"): 1.0,
        ("c", "cpu"): 1.0,
    },
    overhead_s=0.0,
)

# Zero-latency, 1 GB/s network (nic 8 Gbps at efficiency 1.0).
NET = NetworkModel(latency_s=0.0, backbone_gbps=None, efficiency=1.0)


def make_cluster(n_unit=2, n_gpu=0):
    comp = []
    if n_gpu:
        comp.append((GPU_NODE, n_gpu))
    if n_unit:
        comp.append((UNIT, n_unit))
    return Cluster(comp, network=NET)


class TestSequentialExecution:
    engine = Simulator

    def test_single_task_duration(self):
        cluster = make_cluster(1)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 0, home=0)
        g.submit("t", "p", 2e9, writes=[a])
        res = self.engine(cluster, PM).run(g)
        assert res.makespan == pytest.approx(2.0)

    def test_dependent_tasks_serialize(self):
        cluster = make_cluster(1)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 0, home=0)
        g.submit("t", "p", 1e9, writes=[a])
        g.submit("t", "p", 1e9, reads=[a], writes=[a])
        res = self.engine(cluster, PM).run(g)
        assert res.makespan == pytest.approx(2.0)

    def test_independent_tasks_parallel_across_nodes(self):
        cluster = make_cluster(2)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 0, home=0)
        b = g.registry.register("b", 0, home=1)
        g.submit("t", "p", 1e9, writes=[a])
        g.submit("t", "p", 1e9, writes=[b])
        res = self.engine(cluster, PM).run(g)
        assert res.makespan == pytest.approx(1.0)

    def test_single_worker_serializes_independent_tasks(self):
        cluster = make_cluster(1)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 0, home=0)
        b = g.registry.register("b", 0, home=0)
        g.submit("t", "p", 1e9, writes=[a])
        g.submit("t", "p", 1e9, writes=[b])
        res = self.engine(cluster, PM).run(g)
        assert res.makespan == pytest.approx(2.0)

    def test_empty_graph(self):
        res = self.engine(make_cluster(1), PM).run(TaskGraph(DataRegistry()))
        assert res.makespan == 0.0
        assert res.task_count == 0


class TestWorkerSelection:
    engine = Simulator

    def test_gpu_preferred_when_faster(self):
        cluster = make_cluster(0, n_gpu=1)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 0, home=0)
        g.submit("t", "p", 10e9, writes=[a])
        res = self.engine(cluster, PM, trace=True).run(g)
        assert res.makespan == pytest.approx(1.0)  # 10 GF on the 10 GF/s GPU
        assert res.task_records[0].worker_kind == "gpu"

    def test_cpu_only_placement_respected(self):
        cluster = make_cluster(0, n_gpu=1)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 0, home=0)
        g.submit("c", "p", 10e9, writes=[a], placement=Placement.CPU_ONLY)
        res = self.engine(cluster, PM, trace=True).run(g)
        assert res.makespan == pytest.approx(10.0)  # forced onto 1 GF/s CPU
        assert res.task_records[0].worker_kind == "cpu"

    def test_no_eligible_worker_raises(self):
        cluster = make_cluster(1)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 0, home=0)
        g.submit("t", "p", 1.0, writes=[a], placement=Placement.GPU_ONLY)
        with pytest.raises(RuntimeError, match="can run on no worker"):
            self.engine(cluster, PM).run(g)


class TestCommunication:
    engine = Simulator

    def test_remote_read_costs_transfer(self):
        cluster = make_cluster(2)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 1e9, home=0)  # 1 GB at 1 GB/s = 1 s
        g.submit("t", "p", 1e9, writes=[a])        # runs on node 0, 1 s
        b = g.registry.register("b", 0, home=1)
        g.submit("t", "p", 1e9, reads=[a], writes=[b])  # node 1: fetch + 1 s
        res = self.engine(cluster, PM).run(g)
        assert res.makespan == pytest.approx(3.0)
        assert res.transfer_count == 1
        assert res.comm_bytes == pytest.approx(1e9)

    def test_replica_cached_no_second_transfer(self):
        cluster = make_cluster(2)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 1e9, home=0)
        g.submit("t", "p", 1e9, writes=[a])
        b = g.registry.register("b", 0, home=1)
        c = g.registry.register("c", 0, home=1)
        g.submit("t", "p", 1e9, reads=[a], writes=[b])
        g.submit("t", "p", 1e9, reads=[a], writes=[c])
        res = self.engine(cluster, PM).run(g)
        assert res.transfer_count == 1

    def test_write_invalidates_replicas(self):
        cluster = make_cluster(2)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 1e9, home=0)
        aux = g.registry.register("aux", 0, home=1)
        g.submit("t", "p", 1e9, writes=[a])
        g.submit("t", "p", 1e9, reads=[a], writes=[aux])   # replica on node 1
        g.submit("t", "p", 1e9, reads=[a], writes=[a])     # rewrite on node 0
        g.submit("t", "p", 1e9, reads=[a], writes=[aux])   # must re-fetch
        res = self.engine(cluster, PM).run(g)
        assert res.transfer_count == 2

    def test_local_read_is_free(self):
        cluster = make_cluster(2)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 1e9, home=0)
        g.submit("t", "p", 1e9, writes=[a])
        g.submit("t", "p", 1e9, reads=[a], writes=[a])
        res = self.engine(cluster, PM).run(g)
        assert res.transfer_count == 0

    def test_unwritten_input_fetched_from_home(self):
        cluster = make_cluster(2)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 1e9, home=0)
        b = g.registry.register("b", 0, home=1)
        g.submit("t", "p", 1e9, reads=[a], writes=[b])
        res = self.engine(cluster, PM).run(g)
        assert res.makespan == pytest.approx(2.0)
        assert res.transfer_count == 1

    def test_nic_contention_serializes_sends(self):
        """With a single-stream NIC, two pulls from node 0 serialize."""
        net1 = NetworkModel(latency_s=0.0, backbone_gbps=None, efficiency=1.0,
                            streams=1)
        cluster = Cluster([(UNIT, 3)], network=net1)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 1e9, home=0)
        b = g.registry.register("b", 0, home=1)
        c = g.registry.register("c", 0, home=2)
        g.submit("t", "p", 0.0, reads=[a], writes=[b])
        g.submit("t", "p", 0.0, reads=[a], writes=[c])
        res = self.engine(cluster, PM).run(g)
        # Sends serialize on node 0's NIC: second transfer ends at t=2.
        assert res.makespan == pytest.approx(2.0)

    def test_multiple_streams_parallelize_sends(self):
        """With 2 NIC streams the same two pulls complete concurrently."""
        net2 = NetworkModel(latency_s=0.0, backbone_gbps=None, efficiency=1.0,
                            streams=2)
        cluster = Cluster([(UNIT, 3)], network=net2)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 1e9, home=0)
        b = g.registry.register("b", 0, home=1)
        c = g.registry.register("c", 0, home=2)
        g.submit("t", "p", 0.0, reads=[a], writes=[b])
        g.submit("t", "p", 0.0, reads=[a], writes=[c])
        res = self.engine(cluster, PM).run(g)
        assert res.makespan == pytest.approx(1.0)


class TestResultBookkeeping:
    engine = Simulator

    def test_phase_spans(self):
        cluster = make_cluster(1)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 0, home=0)
        g.submit("t", "gen", 1e9, writes=[a])
        g.submit("t", "fact", 1e9, reads=[a], writes=[a])
        res = self.engine(cluster, PM).run(g)
        assert res.phase_spans["gen"] == pytest.approx((0.0, 1.0))
        assert res.phase_spans["fact"] == pytest.approx((1.0, 2.0))
        assert res.phase_duration("fact") == pytest.approx(1.0)

    def test_phase_duration_unknown_phase(self):
        cluster = make_cluster(1)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 0, home=0)
        g.submit("t", "gen", 1e9, writes=[a])
        res = self.engine(cluster, PM).run(g)
        with pytest.raises(KeyError):
            res.phase_duration("nope")

    def test_trace_records_only_when_enabled(self):
        cluster = make_cluster(1)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 0, home=0)
        g.submit("t", "p", 1e9, writes=[a])
        assert self.engine(cluster, PM).run(g).task_records == []
        assert len(self.engine(cluster, PM, trace=True).run(g).task_records) == 1

    def test_priority_breaks_ready_ties(self):
        cluster = make_cluster(1)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 0, home=0)
        b = g.registry.register("b", 0, home=0)
        g.submit("t", "p", 1e9, writes=[a], priority=0)
        g.submit("t", "p", 1e9, writes=[b], priority=10)
        res = self.engine(cluster, PM, trace=True).run(g)
        first = res.task_records[0]
        assert first.tid == 1  # higher priority scheduled first


class TestSequentialExecutionFast(TestSequentialExecution):
    engine = FastSimulator


class TestWorkerSelectionFast(TestWorkerSelection):
    engine = FastSimulator


class TestCommunicationFast(TestCommunication):
    engine = FastSimulator


class TestResultBookkeepingFast(TestResultBookkeeping):
    engine = FastSimulator
