"""Tests for eager data pushes and tree broadcasts in the simulator.

``TestEagerPush`` runs on the reference ``Simulator``, ``TestEagerPushFast``
on the production ``FastSimulator``.
"""

import pytest

from repro.platform import Cluster, NetworkModel, NodeType
from repro.runtime import (
    DataRegistry,
    FastSimulator,
    PerfModel,
    Simulator,
    TaskGraph,
)

UNIT = NodeType(
    name="unit", site="SD", category="S", cpu_desc="", gpu_desc="",
    cpu_gflops=1.0, gpus=0, gpu_gflops=0.0, nic_gbps=8.0, memory_gb=1.0,
    cpu_slots=1,
)
PM = PerfModel(efficiency={("t", "cpu"): 1.0}, overhead_s=0.0)
NET1 = NetworkModel(latency_s=0.0, backbone_gbps=None, efficiency=1.0, streams=1)


def cluster_of(n):
    return Cluster([(UNIT, n)], network=NET1)


class TestEagerPush:
    engine = Simulator

    def test_transfer_starts_at_write_not_at_use(self):
        """The consumer node computes something else while the transfer is
        in flight: with eager push, the transfer overlaps that work."""
        cluster = cluster_of(2)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 1e9, home=0)      # 1 s transfer
        busy = g.registry.register("busy", 0, home=1)
        out = g.registry.register("out", 0, home=1)
        g.submit("t", "p", 1e9, writes=[a])            # node 0: [0, 1]
        g.submit("t", "p", 1e9, writes=[busy])         # node 1: [0, 1]
        g.submit("t", "p", 1e9, reads=[a, busy], writes=[out])
        res = self.engine(cluster, PM).run(g)
        # Without prefetch: 1 (write) + 1 (transfer) + 1 (consumer) = 3.
        # With eager push the transfer [1, 2] overlaps nothing here, so the
        # consumer runs [2, 3]... but `busy` ran [0, 1] concurrently, so
        # any serialization of busy-then-fetch would give 3.0 as well;
        # check the real benefit below with an initially-resident block.
        assert res.makespan == pytest.approx(3.0)

    def test_initial_data_pushed_at_time_zero(self):
        """Initially-resident remote inputs start moving at t=0, hiding
        under the consumer's other work."""
        cluster = cluster_of(2)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 1e9, home=0)      # unwritten input
        busy = g.registry.register("busy", 0, home=1)
        out = g.registry.register("out", 0, home=1)
        g.submit("t", "p", 1e9, writes=[busy])         # node 1: [0, 1]
        g.submit("t", "p", 1e9, reads=[a, busy], writes=[out])
        res = self.engine(cluster, PM).run(g)
        # Transfer [0, 1] overlaps the busy task [0, 1]; consumer [1, 2].
        assert res.makespan == pytest.approx(2.0)

    def test_tree_broadcast_relays_from_consumers(self):
        """Broadcasting one block to 4 consumers over single-stream NICs
        takes ~log2 rounds, not 4 sequential sends from the writer."""
        cluster = cluster_of(5)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 1e9, home=0)
        g.submit("t", "p", 0.0, writes=[a])
        outs = [g.registry.register(f"o{i}", 0, home=i) for i in range(1, 5)]
        for i, out in enumerate(outs):
            g.submit("t", "p", 0.0, reads=[a], writes=[out])
        res = self.engine(cluster, PM, trace=True).run(g)
        # Sequential unicast would finish at t=4; a greedy relay tree
        # finishes by t=3 (0->1; 0->2 & 1->3; then one more).
        assert res.makespan <= 3.0 + 1e-9
        # At least one transfer originates from a non-writer node.
        sources = {t.src for t in res.transfer_records}
        assert sources - {0}

    def test_push_respects_versions(self):
        """A consumer of version 2 never receives version 1's copy."""
        cluster = cluster_of(3)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 1e9, home=0)
        o1 = g.registry.register("o1", 0, home=1)
        o2 = g.registry.register("o2", 0, home=2)
        g.submit("t", "p", 1e9, writes=[a])               # v1 on node 0
        g.submit("t", "p", 1e9, reads=[a], writes=[o1])   # node 1 reads v1
        g.submit("t", "p", 1e9, reads=[a], writes=[a])    # v2 on node 0
        g.submit("t", "p", 1e9, reads=[a], writes=[o2])   # node 2 reads v2
        res = self.engine(cluster, PM, trace=True).run(g)
        # Node 2's copy must arrive after v2 is produced.
        v2_done = [r for r in res.task_records if r.tid == 2][0].end
        arrival = [t for t in res.transfer_records if t.dst == 2][0]
        assert arrival.start >= v2_done - 1e-9

    def test_comm_stats_accumulate(self):
        cluster = cluster_of(3)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 5e8, home=0)
        o1 = g.registry.register("o1", 0, home=1)
        o2 = g.registry.register("o2", 0, home=2)
        g.submit("t", "p", 1e9, writes=[a])
        g.submit("t", "p", 1e9, reads=[a], writes=[o1])
        g.submit("t", "p", 1e9, reads=[a], writes=[o2])
        res = self.engine(cluster, PM).run(g)
        assert res.transfer_count == 2
        assert res.comm_bytes == pytest.approx(1e9)
        assert res.comm_time == pytest.approx(1.0)


class TestEagerPushFast(TestEagerPush):
    engine = FastSimulator
