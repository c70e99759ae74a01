"""Hand-built adversarial DAGs aimed at the fast engine's weak points.

The fast engine reproduces the reference through precompiled plans
(eager-push lists, queue classes, worker preferences, readiness
tracking), NIC stream accounting with a per-node send minimum, a
calendar of per-timestamp event lists and insertion-sequence queue
ties.  Each test here constructs a graph whose *only* purpose is to
stress one of them and then demands bit identity through the package
oracle.
"""

from repro.geostat import IterationPlan
from repro.geostat.phases import build_iteration_graph
from repro.platform import Cluster, NetworkModel, NodeType, get_scenario
from repro.runtime import (
    DataRegistry,
    PerfModel,
    Placement,
    Simulator,
    TaskGraph,
)
from repro.runtime.simfast import compile_template
from repro.workload import Workload

from .oracle import assert_equivalent

UNIT = NodeType(
    name="unit", site="SD", category="S", cpu_desc="", gpu_desc="",
    cpu_gflops=1.0, gpus=0, gpu_gflops=0.0, nic_gbps=8.0, memory_gb=1.0,
    cpu_slots=2,
)

GPU_NODE = NodeType(
    name="gnode", site="SD", category="L", cpu_desc="", gpu_desc="g",
    cpu_gflops=1.0, gpus=1, gpu_gflops=10.0, nic_gbps=8.0, memory_gb=1.0,
    cpu_slots=1,
)

PM = PerfModel(
    efficiency={
        ("t", "cpu"): 1.0, ("t", "gpu"): 1.0,
        ("slow", "cpu"): 0.5,
        ("c", "cpu"): 1.0,
    },
    overhead_s=0.0,
)

NET = NetworkModel(latency_s=0.0, backbone_gbps=None, efficiency=1.0)


def make_cluster(n_unit=2, n_gpu=0, streams=4):
    net = NetworkModel(
        latency_s=0.0, backbone_gbps=None, efficiency=1.0, streams=streams
    )
    comp = []
    if n_gpu:
        comp.append((GPU_NODE, n_gpu))
    if n_unit:
        comp.append((UNIT, n_unit))
    return Cluster(comp, network=net)


def test_cross_node_chain():
    """A deep chain ping-ponging between nodes: every edge is a push.

    Each task's predecessor lives on the other node, so every edge
    exercises the eager-push bookkeeping.
    """
    cluster = make_cluster(2)
    g = TaskGraph(DataRegistry())
    prev = None
    for i in range(40):
        h = g.registry.register(f"h{i}", 16 << 20, home=i % 2)
        reads = [prev] if prev is not None else []
        g.submit("t", "p", 1e9, reads=reads, writes=[h])
        prev = h
    assert_equivalent(g, cluster, PM)


def test_cross_node_chains_interleaved_with_wave():
    """A homogeneous flood on node 0 racing a cross-node chain.

    The chain keeps inserting work into the busy node from outside, so
    foreign readiness interleaves with local completions at every step.
    """
    cluster = make_cluster(2)
    g = TaskGraph(DataRegistry())
    for i in range(64):
        h = g.registry.register(f"w{i}", 0, home=0)
        g.submit("t", "p", 1e9, writes=[h])
    prev = None
    for i in range(10):
        h = g.registry.register(f"c{i}", 4 << 20, home=i % 2)
        reads = [prev] if prev is not None else []
        g.submit("t", "p", 3e8, reads=reads, writes=[h])
        prev = h
    assert_equivalent(g, cluster, PM)


def test_nic_contention_single_stream():
    """Many pulls from one producer through a single-stream NIC.

    The reference serializes sends on the producer's NIC lane; the fast
    path's lane accounting must produce the same transfer schedule.
    """
    cluster = make_cluster(8, streams=1)
    g = TaskGraph(DataRegistry())
    src = g.registry.register("src", 1 << 30, home=0)
    g.submit("t", "p", 1e9, writes=[src])
    for i in range(1, 8):
        out = g.registry.register(f"o{i}", 0, home=i)
        g.submit("t", "p", 1e9, reads=[src], writes=[out])
    assert_equivalent(g, cluster, PM)


def test_nic_contention_fan_in():
    """Reverse direction: one consumer pulls from seven producers."""
    cluster = make_cluster(8, streams=2)
    g = TaskGraph(DataRegistry())
    parts = []
    for i in range(1, 8):
        h = g.registry.register(f"p{i}", 256 << 20, home=i)
        g.submit("t", "p", 1e9, writes=[h])
        parts.append(h)
    out = g.registry.register("out", 0, home=0)
    g.submit("t", "p", 1e9, reads=parts, writes=[out])
    assert_equivalent(g, cluster, PM)


def test_priority_inversion():
    """High priority assigned to the *bottom* of a chain.

    Ready-queue ordering must not let the late high-priority tasks
    overtake anything they depend on, and the fast path must pop the
    same victim at every tie.
    """
    cluster = make_cluster(1)
    g = TaskGraph(DataRegistry())
    chain_h = g.registry.register("chain", 0, home=0)
    for depth in range(6):
        g.submit(
            "t", "p", 1e9,
            reads=[chain_h] if depth else [],
            writes=[chain_h],
            priority=depth,  # deeper tasks get *higher* priority
        )
    for i in range(6):
        h = g.registry.register(f"f{i}", 0, home=0)
        g.submit("t", "p", 1e9, writes=[h], priority=-i)
    assert_equivalent(g, cluster, PM)


def test_priority_ties_break_identically():
    """Dozens of equal-priority ready tasks: pure tie-break territory."""
    cluster = make_cluster(2)
    g = TaskGraph(DataRegistry())
    for i in range(50):
        h = g.registry.register(f"h{i}", 0, home=i % 2)
        g.submit("t", "p", 1e9, writes=[h], priority=7)
    assert_equivalent(g, cluster, PM)


def test_broken_wave_heterogeneous_member():
    """A single slow task in the middle of an otherwise uniform flood.

    Both engines must agree on the resulting schedule exactly.
    """
    cluster = make_cluster(1)
    g = TaskGraph(DataRegistry())
    for i in range(60):
        h = g.registry.register(f"h{i}", 0, home=0)
        name = "slow" if i == 30 else "t"
        g.submit(name, "p", 1e9, writes=[h])
    assert_equivalent(g, cluster, PM)


def test_wave_with_gpu_preference_split():
    """Mixed CPU-only and CPU/GPU tasks on a GPU node."""
    cluster = make_cluster(0, n_gpu=2)
    g = TaskGraph(DataRegistry())
    for i in range(48):
        h = g.registry.register(f"h{i}", 0, home=i % 2)
        if i % 3:
            g.submit("t", "p", 1e9, writes=[h])
        else:
            g.submit("c", "p", 1e9, writes=[h], placement=Placement.CPU_ONLY)
    assert_equivalent(g, cluster, PM)


def test_vector_path_engages_and_matches():
    """A wide uniform flood: long runs of equal-priority queue ties."""
    cluster = make_cluster(1)
    g = TaskGraph(DataRegistry())
    for i in range(100):
        h = g.registry.register(f"h{i}", 0, home=0)
        g.submit("t", "p", 1e9, writes=[h])
    assert_equivalent(g, cluster, PM)


def test_diamond_fan_out_fan_in_across_nodes():
    """Fan-out to all nodes, fan back in: transfer-heavy joins."""
    cluster = make_cluster(4)
    g = TaskGraph(DataRegistry())
    root = g.registry.register("root", 64 << 20, home=0)
    g.submit("t", "p", 1e9, writes=[root])
    mids = []
    for i in range(4):
        for j in range(3):
            h = g.registry.register(f"m{i}_{j}", 32 << 20, home=i)
            g.submit("t", "p", 1e9, reads=[root], writes=[h])
            mids.append(h)
    out = g.registry.register("out", 0, home=3)
    g.submit("t", "p", 1e9, reads=mids, writes=[out])
    assert_equivalent(g, cluster, PM)


def test_calendar_buckets_and_late_queue_ties():
    """One timestamp shared by three nodes, zero-duration work, late ties.

    At t=2 one timestamp holds, interleaved, each node's freed lane and
    the ready events its first task ``a`` sends to the other nodes.  The
    zero-flop tasks ``z`` then finish *at* t=2, mid-dispatch, and their
    successors ``w`` arrive in a fresh t=2 batch -- ``w0`` on node 0
    after node 0 has already dispatched.  On node 0, ``early`` (ready at
    t=2) and ``late`` (ready at t=4, smaller tid) share a priority and
    wait for the lane ``block`` frees at t=6: insertion order, not tid,
    breaks their tie.
    """
    cluster = make_cluster(3)
    g = TaskGraph(DataRegistry())
    names = []

    def task(name, node, flops, reads=(), priority=0):
        names.append(name)
        h = g.registry.register(name, 0, home=node)
        g.submit(
            "t", "p", flops, reads=list(reads), writes=[h], priority=priority
        )
        return h

    a = [task(f"a{k}", k, 1e9) for k in range(3)]  # 2 s each
    task("block", 0, 3e9)  # node 0 until t=6
    d = task("d", 2, 2e9)  # node 2 until t=4
    task("late", 0, 1e9, reads=[d], priority=5)
    task("early", 0, 1e9, reads=[a[1]], priority=5)
    task("c", 0, 4e9, reads=[a[0]], priority=10)
    z = [task(f"z{k}", k, 0.0, reads=[a[k - 1]], priority=20) for k in range(3)]
    for k in range(3):
        task(f"w{k}", k, 0.0, reads=[z[k - 1]], priority=20)
    assert_equivalent(g, cluster, PM)
    ref = Simulator(cluster, PM, trace=True).run(g)
    starts = {names[r.tid]: r.start for r in ref.task_records}
    assert starts["z0"] == starts["w0"] == 2.0
    assert (starts["early"], starts["late"]) == (6.0, 8.0)


def pure_war_graph():
    """A writer whose ready time only a pure WAR edge decides.

    ``r`` (node 0, 10 s) reads ``h``; ``p`` (node 1, 2 s) writes ``y``;
    ``w`` (node 1) reads ``y`` and writes ``h``.  Its edge from ``r`` is
    write-after-read: ``w`` reads nothing ``r`` wrote, so no arrival
    carries ``r``'s end.  Both start at t=0 and node 0 dispatches
    first, so ``r`` completes first, and the last predecessor's end
    (``p``'s, 2 s) does not carry it either.  Returns the
    cluster, the graph and the tids of ``r`` and ``w``.
    """
    cluster = make_cluster(2)
    g = TaskGraph(DataRegistry())
    h = g.registry.register("h", 0, home=1)
    x = g.registry.register("x", 0, home=0)
    y = g.registry.register("y", 0, home=1)
    r = g.submit("t", "p", 5e9, reads=[h], writes=[x])
    g.submit("t", "p", 1e9, writes=[y])
    w = g.submit("t", "p", 1e9, reads=[y], writes=[h])
    return cluster, g, r.tid, w.tid


def test_pure_war_edge_decides_ready_time():
    """The writer starts at the reader's end, not at its inputs'
    arrival: ``w`` is the one tracked task."""
    cluster, g, r, w = pure_war_graph()
    assert compile_template(g, cluster, PM).tracked == [False, False, True]
    assert_equivalent(g, cluster, PM)
    ref = Simulator(cluster, PM, trace=True).run(g)
    rec = {t.tid: t for t in ref.task_records}
    assert rec[w].start == rec[r].end == 10.0


def initial_push_graph(streams=1):
    """Two initial pushes of the never-written ``g`` (home node 1)
    through NICs of ``streams`` streams, first to node 0, then to
    node 2.

    With one stream, a best-holder choice would tie for the second
    push: the home's send stream frees when the first push lands on
    node 0, the moment node 0 holds ``g``, and the lower node id would
    relay from node 0.
    """
    cluster = make_cluster(3, streams=streams)
    g = TaskGraph(DataRegistry())
    h = g.registry.register("g", 1 << 20, home=1)
    for node in (0, 2):
        out = g.registry.register(f"o{node}", 0, home=node)
        g.submit("t", "p", 1e9, reads=[h], writes=[out])
    return cluster, g


def test_initial_pushes_leave_the_home():
    cluster, g = initial_push_graph()
    assert_equivalent(g, cluster, PM)
    ref = Simulator(cluster, PM, trace=True).run(g)
    first, second = ref.transfer_records
    assert (first.src, first.dst, second.src, second.dst) == (1, 0, 1, 2)
    assert second.start == first.end


def test_iteration_graphs_are_read_covered():
    """Traffic pin: every dependency edge of the b, c and m iteration
    graphs (16 tiles) is covered by a read of the predecessor's last
    write, so no task needs its predecessors' finish times.  A graph
    change that adds pure WAR or WAW edges shows up here, not as a
    silent slowdown of the engine."""
    for key in ("b", "c", "m"):
        scenario = get_scenario(key)
        cluster = scenario.build_cluster()
        workload = Workload.from_name(scenario.workload)
        assert workload.t == 16
        graph = build_iteration_graph(
            cluster, workload, IterationPlan(n_fact=2, n_gen=len(cluster))
        )
        assert sum(graph.indegree) > 0
        tmpl = compile_template(graph, cluster, PerfModel())
        assert not any(tmpl.tracked), key
        assert_equivalent(graph, cluster)
