"""Property-based invariants of the discrete-event simulator.

Random task graphs on random small clusters must always satisfy:

* every task runs exactly once, within the makespan;
* dependencies are respected (a task starts no earlier than its
  predecessors finish);
* no worker runs two tasks at once;
* scaling all task costs up never decreases the makespan;
* the makespan is at least the trivial work lower bound.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import Cluster, NetworkModel, NodeType
from repro.runtime import DataRegistry, PerfModel, Simulator, TaskGraph

PM = PerfModel(efficiency={("t", "cpu"): 1.0, ("t", "gpu"): 1.0}, overhead_s=0.0)
NET = NetworkModel(latency_s=0.0, backbone_gbps=None, efficiency=1.0, streams=1)


def make_node(speed: float, gpus: int, slots: int) -> NodeType:
    return NodeType(
        name=f"n{speed:.0f}g{gpus}", site="SD", category="S",
        cpu_desc="", gpu_desc="g" if gpus else "",
        cpu_gflops=speed, gpus=gpus, gpu_gflops=speed * 2 if gpus else 0.0,
        nic_gbps=8.0, memory_gb=1.0, cpu_slots=slots,
    )


graph_spec = st.lists(
    st.tuples(
        st.floats(min_value=0.1e9, max_value=5e9),   # flops
        st.integers(min_value=0, max_value=5),       # handle to read
        st.integers(min_value=0, max_value=5),       # handle to write
    ),
    min_size=1,
    max_size=25,
)

cluster_spec = st.tuples(
    st.integers(min_value=1, max_value=3),  # node count
    st.integers(min_value=0, max_value=1),  # gpus per node
    st.integers(min_value=1, max_value=2),  # cpu slots
)


def build(spec, cspec):
    n_nodes, gpus, slots = cspec
    cluster = Cluster([(make_node(1.0, gpus, slots), n_nodes)], network=NET)
    graph = TaskGraph(DataRegistry())
    handles = [
        graph.registry.register(f"h{i}", 1e6, home=i % n_nodes) for i in range(6)
    ]
    for flops, r, w in spec:
        graph.submit("t", "p", flops, reads=[handles[r]], writes=[handles[w]])
    return cluster, graph


@settings(max_examples=60, deadline=None)
@given(spec=graph_spec, cspec=cluster_spec)
def test_simulator_invariants(spec, cspec):
    cluster, graph = build(spec, cspec)
    result = Simulator(cluster, PM, trace=True).run(graph)

    records = {r.tid: r for r in result.task_records}
    # 1. Every task ran exactly once, inside [0, makespan].
    assert len(records) == len(graph.tasks)
    for r in records.values():
        assert 0.0 <= r.start <= r.end <= result.makespan + 1e-9

    # 2. Dependencies respected.
    preds = graph.predecessors()
    for tid, plist in enumerate(preds):
        for p in plist:
            assert records[p].end <= records[tid].start + 1e-9

    # 3. Workers never oversubscribed: per (node, kind) at most
    #    (#workers of that kind) overlapping tasks.
    per_slot = defaultdict(list)
    for r in records.values():
        per_slot[(r.node, r.worker_kind)].append((r.start, r.end))
    for (node, kind), intervals in per_slot.items():
        nt = cluster[node].node_type
        capacity = nt.gpus if kind == "gpu" else nt.cpu_slots
        events = sorted(
            [(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals],
            key=lambda t: (t[0], t[1]),
        )
        live = 0
        for _, delta in events:
            live += delta
            assert live <= capacity

    # 4. Work lower bound: makespan >= total flops / aggregate speed.
    total_flops = graph.total_flops()
    agg = sum(n.total_gflops for n in cluster) * 1e9
    assert result.makespan >= total_flops / agg - 1e-9


@settings(max_examples=30, deadline=None)
@given(
    spec=graph_spec,
    cspec=cluster_spec,
    factor=st.floats(min_value=1.5, max_value=4.0),
)
def test_makespan_monotone_in_task_cost(spec, cspec, factor):
    cluster, graph = build(spec, cspec)
    base = Simulator(cluster, PM).run(graph).makespan

    scaled_spec = [(f * factor, r, w) for f, r, w in spec]
    cluster2, graph2 = build(scaled_spec, cspec)
    scaled = Simulator(cluster2, PM).run(graph2).makespan
    assert scaled >= base - 1e-9


@settings(max_examples=30, deadline=None)
@given(spec=graph_spec, cspec=cluster_spec)
def test_simulation_deterministic(spec, cspec):
    cluster, graph = build(spec, cspec)
    m1 = Simulator(cluster, PM).run(graph).makespan
    cluster2, graph2 = build(spec, cspec)
    m2 = Simulator(cluster2, PM).run(graph2).makespan
    assert m1 == pytest.approx(m2, rel=1e-12)


# ---------------------------------------------------------------------------
# Metamorphic properties of the flat-plan fast engine.
#
# A fixed family of stdlib-random DAGs (seeds 0..23, reproducible without
# hypothesis) is pushed through FastSimulator and checked against
# transformations with known answers: rate scaling divides comm-free
# makespans exactly, lanes never oversubscribe, per-node NICs serialize
# to their stream count, and the record streams conserve the DAG.
# ---------------------------------------------------------------------------

import random

from repro.runtime import FastSimulator

METAMORPHIC_SEEDS = range(24)


def random_dag(seed, comm=True, speed=1.0, streams=1):
    """One stdlib-random DAG + cluster, fully determined by ``seed``."""
    rng = random.Random(seed)
    n_nodes = rng.randint(1, 4)
    gpus = rng.randint(0, 1)
    slots = rng.randint(1, 3)
    net = NetworkModel(
        latency_s=0.0, backbone_gbps=None, efficiency=1.0, streams=streams
    )
    node = make_node(speed, gpus, slots)
    cluster = Cluster([(node, n_nodes)], network=net)
    graph = TaskGraph(DataRegistry())
    handles = [
        graph.registry.register(
            f"h{i}", float(rng.choice([0, 1 << 20, 64 << 20])) if comm else 0.0,
            home=rng.randrange(n_nodes),
        )
        for i in range(rng.randint(4, 10))
    ]
    for _ in range(rng.randint(20, 60)):
        reads = rng.sample(handles, k=rng.randint(0, 2))
        writes = [rng.choice(handles)]
        graph.submit(
            "t", "p", float(rng.randint(1, 40)) * 1e8,
            reads=reads, writes=writes,
            priority=rng.randint(-3, 3),
        )
    return cluster, graph


@pytest.mark.parametrize("seed", METAMORPHIC_SEEDS)
def test_metamorphic_gflops_scaling(seed):
    """Comm-free makespans scale exactly 1/k with worker rates.

    With zero-byte handles and zero latency the schedule is pure
    compute, every duration is flops/rate, and scaling every rate by k
    divides each duration -- hence the makespan -- by exactly k.
    """
    k = 2.0
    cluster, graph = random_dag(seed, comm=False, speed=1.0)
    base = FastSimulator(cluster, PM).run(graph).makespan
    cluster_k, graph_k = random_dag(seed, comm=False, speed=k)
    scaled = FastSimulator(cluster_k, PM).run(graph_k).makespan
    assert scaled == pytest.approx(base / k, rel=1e-12)


@pytest.mark.parametrize("seed", METAMORPHIC_SEEDS)
def test_metamorphic_no_lane_overlap(seed):
    """Per (node, kind): concurrent fast-engine tasks <= lane count."""
    cluster, graph = random_dag(seed)
    result = FastSimulator(cluster, PM, trace=True).run(graph)
    per_slot = defaultdict(list)
    for r in result.task_records:
        per_slot[(r.node, r.worker_kind)].append((r.start, r.end))
        assert r.worker >= 0  # the fast path always attributes a lane
    for (node, kind), intervals in per_slot.items():
        nt = cluster[node].node_type
        capacity = nt.gpus if kind == "gpu" else nt.cpu_slots
        events = sorted(
            [(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals],
            key=lambda t: (t[0], t[1]),
        )
        live = 0
        for _, delta in events:
            live += delta
            assert live <= capacity


@pytest.mark.parametrize("seed", METAMORPHIC_SEEDS)
def test_metamorphic_nic_serialization(seed):
    """Per node and direction, concurrent transfers <= NIC streams."""
    streams = 1 + seed % 2
    cluster, graph = random_dag(seed, streams=streams)
    result = FastSimulator(cluster, PM, trace=True).run(graph)
    for direction in ("src", "dst"):
        per_node = defaultdict(list)
        for t in result.transfer_records:
            if t.end > t.start:  # zero-byte pulls occupy no lane time
                per_node[getattr(t, direction)].append((t.start, t.end))
        for intervals in per_node.values():
            events = sorted(
                [(s, 1) for s, _ in intervals]
                + [(e, -1) for _, e in intervals],
                key=lambda t: (t[0], t[1]),
            )
            live = 0
            for _, delta in events:
                live += delta
                assert live <= streams


@pytest.mark.parametrize("seed", METAMORPHIC_SEEDS)
def test_metamorphic_record_conservation(seed):
    """The record streams conserve the DAG: nothing lost, nothing made up."""
    cluster, graph = random_dag(seed)
    result = FastSimulator(cluster, PM, trace=True).run(graph)
    # Every submitted task ran exactly once, no phantom tids.
    assert sorted(r.tid for r in result.task_records) == list(
        range(len(graph.tasks))
    )
    assert result.task_count == len(graph.tasks)
    # Transfers reference registered handles with their exact sizes and
    # never ship a handle to the node it is already on.
    sizes = graph.registry.sizes()
    for t in result.transfer_records:
        assert t.src != t.dst
        assert t.nbytes == sizes[t.hid]
    assert result.transfer_count == len(result.transfer_records)
    assert result.comm_bytes == sum(t.nbytes for t in result.transfer_records)
