"""Unit tests for the timeline exporter (repro.obs.timeline).

Covers the analytics invariants (critical path <= makespan, idleness in
[0, 1]) both on hand-built graphs and on stdlib-``random`` DAGs, plus
the one export format, the Chrome trace.
"""

import json
import random

import pytest

from repro.obs import timeline as tl
from repro.platform import Cluster, NetworkModel, NodeType
from repro.runtime import DataRegistry, PerfModel, Simulator, TaskGraph

UNIT = NodeType(
    name="unit", site="SD", category="S", cpu_desc="", gpu_desc="",
    cpu_gflops=1.0, gpus=0, gpu_gflops=0.0, nic_gbps=8.0, memory_gb=1.0,
    cpu_slots=1,
)
WIDE = NodeType(
    name="wide", site="SD", category="S", cpu_desc="", gpu_desc="",
    cpu_gflops=2.0, gpus=0, gpu_gflops=0.0, nic_gbps=8.0, memory_gb=1.0,
    cpu_slots=2,
)
PM = PerfModel(efficiency={("t", "cpu"): 1.0}, overhead_s=0.0)
NET = NetworkModel(latency_s=0.0, efficiency=1.0)

PHASES = ("generation", "factorization", "solve")


def chain_run(n=3):
    """n tasks in a strict chain on one node, 1 s each."""
    cluster = Cluster([(UNIT, 2)], network=NET)
    g = TaskGraph(DataRegistry())
    a = g.registry.register("a", 8.0, home=0)
    g.submit("t", "generation", 1e9, writes=[a])
    for _ in range(n - 1):
        g.submit("t", "factorization", 1e9, reads=[a], writes=[a])
    res = Simulator(cluster, PM, trace=True).run(g)
    return cluster, g, res


def cross_node_run():
    """Two tasks on different nodes with one cross-node transfer."""
    cluster = Cluster([(UNIT, 2)], network=NET)
    g = TaskGraph(DataRegistry())
    a = g.registry.register("a", 1e9, home=0)
    b = g.registry.register("b", 8.0, home=1)
    g.submit("t", "generation", 1e9, writes=[a])
    g.submit("t", "factorization", 1e9, reads=[a], writes=[b])
    res = Simulator(cluster, PM, trace=True).run(g)
    return cluster, g, res


def random_run(rng, n_tasks=14, n_nodes=3):
    """A random DAG simulated on a small homogeneous cluster."""
    cluster = Cluster([(UNIT, n_nodes)], network=NET)
    g = TaskGraph(DataRegistry())
    handles = []
    for i in range(n_tasks):
        h = g.registry.register(
            f"h{i}", float(rng.randrange(1, 200)) * 1e6,
            home=rng.randrange(n_nodes),
        )
        k = min(len(handles), rng.randrange(0, 3))
        reads = rng.sample(handles, k) if k else []
        g.submit("t", rng.choice(PHASES),
                 float(rng.randrange(1, 20)) * 1e8,
                 reads=reads, writes=[h])
        handles.append(h)
    res = Simulator(cluster, PM, trace=True).run(g)
    return cluster, g, res


class TestCriticalPath:
    def test_chain_equals_makespan(self):
        cluster, g, res = chain_run(3)
        length, path = tl.critical_path(res, g)
        assert length == pytest.approx(res.makespan)
        assert length == pytest.approx(3.0)
        assert len(path) == 3

    def test_independent_tasks_short_path(self):
        cluster, g, res = cross_node_run()
        length, path = tl.critical_path(res, g)
        # Chain: generation + transfer wait + factorization; the path
        # only counts task time, so it is strictly below the makespan.
        assert length <= res.makespan + 1e-9
        assert path  # non-empty

    def test_per_phase_path_is_partial(self):
        cluster, g, res = chain_run(4)
        total, _ = tl.critical_path(res, g)
        gen, gen_path = tl.critical_path(res, g, phase="generation")
        fact, fact_path = tl.critical_path(res, g, phase="factorization")
        assert gen == pytest.approx(1.0)
        assert fact == pytest.approx(3.0)
        assert gen + fact == pytest.approx(total)
        assert all(t in {r.tid for r in res.task_records} for t in gen_path)

    def test_requires_trace(self):
        cluster = Cluster([(UNIT, 1)], network=NET)
        g = TaskGraph(DataRegistry())
        a = g.registry.register("a", 8.0, home=0)
        g.submit("t", "generation", 1e9, writes=[a])
        res = Simulator(cluster, PM).run(g)  # no trace
        with pytest.raises(ValueError, match="trace"):
            tl.critical_path(res, g)


class TestAnalyze:
    def test_summary_counts(self):
        cluster, g, res = cross_node_run()
        a = tl.analyze(res, cluster, g)
        assert a.task_count == 2
        assert a.transfer_count == 1
        assert [p.phase for p in a.phases] == ["generation", "factorization"]
        assert a.phases[0].tasks == 1

    def test_idleness_bounds_and_busy_accounting(self):
        cluster, g, res = cross_node_run()
        a = tl.analyze(res, cluster, g)
        assert all(0.0 <= x <= 1.0 for x in a.node_idleness)
        # One single-slot lane per node: busy = (1 - idleness) * makespan.
        total_busy = sum((1.0 - x) * a.makespan for x in a.node_idleness)
        expected = sum(r.end - r.start for r in res.task_records)
        assert total_busy == pytest.approx(expected)

    def test_worker_lanes_cover_cpu_slots(self):
        cluster = Cluster([(WIDE, 1)], network=NET)
        g = TaskGraph(DataRegistry())
        for i in range(4):
            h = g.registry.register(f"h{i}", 8.0, home=0)
            g.submit("t", "generation", 1e9, writes=[h])
        res = Simulator(cluster, PM, trace=True).run(g)
        events = tl.chrome_trace(res, cluster)["traceEvents"]
        lanes = {e["tid"]: e["args"]["name"] for e in events
                 if e["name"] == "thread_name"}
        assert lanes == {0: "cpu0", 1: "cpu1", 2: "nic-send", 3: "nic-recv"}
        # Two slots at 1 GF/s each, 4 x 1 GF tasks: both lanes busy 2 s.
        busy = {0: 0.0, 1: 0.0}
        for e in events:
            if e["ph"] == "X":
                busy[e["tid"]] += e["dur"]
        assert busy == pytest.approx({0: 2e6, 1: 2e6})
        assert tl.analyze(res, cluster, g).node_idleness == \
            pytest.approx([0.0], abs=1e-12)

    def test_overlap_keys_and_bounds(self):
        cluster, g, res = cross_node_run()
        a = tl.analyze(res, cluster, g)
        assert set(a.overlap_s) == {"generation+factorization"}
        for pair, sec in a.overlap_s.items():
            assert sec >= 0.0
            assert sec <= a.makespan + 1e-9

    def test_flat_metrics_schema(self):
        cluster, g, res = cross_node_run()
        metrics = tl.flat_metrics(tl.analyze(res, cluster, g))
        for key in ("makespan_s", "critical_path_s", "critical_path_frac",
                    "mean_idleness", "max_idleness", "comm_time_s",
                    "comm_bytes", "task_count", "transfer_count",
                    "phase_makespan_s.generation",
                    "phase_critical_path_s.factorization",
                    "overlap_s.generation+factorization"):
            assert key in metrics, key
        assert all(isinstance(v, float) for v in metrics.values())


class TestRandomDagProperties:
    """Stdlib-random property tests over many simulated DAGs."""

    @pytest.mark.parametrize("seed", range(20))
    def test_invariants(self, seed):
        rng = random.Random(seed)
        cluster, g, res = random_run(rng)
        a = tl.analyze(res, cluster, g)
        assert a.critical_path_s <= a.makespan + 1e-9
        assert 0.0 <= a.mean_idleness <= 1.0
        assert 0.0 <= a.max_idleness <= 1.0
        assert all(0.0 <= x <= 1.0 for x in a.node_idleness)
        assert all(sec >= 0.0 for sec in a.overlap_s.values())
        for p in a.phases:
            assert p.critical_path_s <= a.critical_path_s + 1e-9
            assert p.span_s >= 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_exports_do_not_crash_and_agree(self, seed):
        rng = random.Random(1000 + seed)
        cluster, g, res = random_run(rng)
        a = tl.analyze(res, cluster, g)
        trace = tl.chrome_trace(res, cluster, a)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(res.task_records) + 2 * len(res.transfer_records)


class TestChromeTrace:
    def test_structure(self):
        cluster, g, res = cross_node_run()
        a = tl.analyze(res, cluster, g)
        trace = tl.chrome_trace(res, cluster, a)
        assert trace["displayTimeUnit"] == "ms"
        other = trace["otherData"]
        assert other["schema"] == tl.TIMELINE_SCHEMA_VERSION
        assert other["critical_path_s"] <= other["makespan_s"] + 1e-9
        metas = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["name"] for e in metas}
        assert {"process_name", "process_sort_index", "thread_name"} <= names
        nic = [e for e in metas
               if e["name"] == "thread_name"
               and e["args"]["name"].startswith("nic-")]
        assert len(nic) == 2 * len(cluster)

    def test_transfers_on_sender_and_receiver_nic_lanes(self):
        cluster, g, res = cross_node_run()
        transfers = [e for e in tl.chrome_trace(res, cluster)["traceEvents"]
                     if e.get("cat") == "transfer"]
        # One worker lane (tid 0) per node: nic-send is tid 1, nic-recv 2.
        assert sorted((e["pid"], e["tid"], e["args"]["peer"])
                      for e in transfers) == [(0, 1, 1), (1, 2, 0)]

    def test_durations_in_microseconds(self):
        cluster, g, res = chain_run(2)
        trace = tl.chrome_trace(res, cluster)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert all(e["dur"] == pytest.approx(1e6) for e in xs)

    def test_byte_identical_across_fresh_runs(self):
        c1, _, r1 = cross_node_run()
        c2, _, r2 = cross_node_run()
        first = tl.encode_json(tl.chrome_trace(r1, c1))
        second = tl.encode_json(tl.chrome_trace(r2, c2))
        assert first == second

    def test_round_trips_through_json(self):
        cluster, g, res = cross_node_run()
        trace = tl.chrome_trace(res, cluster)
        assert json.loads(tl.encode_json(trace)) == trace
