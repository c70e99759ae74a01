"""The array-built eager-push plan against the per-read loop it replaced.

:meth:`PlanTemplate.bind` builds ``push_after`` and ``initial_push``
with ``np.unique`` and a stable argsort.  :func:`loop_push_plan` keeps
the earlier construction -- one Python pass over the cross-node read
occurrences with a ``pushed`` set keyed ``(writer, handle,
destination)`` -- as the test-only reference.  Both must yield the same
entries in the same order, per writer and for the initial pushes, on
the scenario table, the fuzz corpus, the adversarial DAGs and a few
edge cases.  The engine replays pushes in list order, so an order
change alone could move a transfer onto another NIC lane.  On the same
graphs, the template's readiness flags must match
:func:`loop_tracked`, a per-edge loop.
"""

import numpy as np
import pytest

from repro.fuzz.workloads import build_msr_graph, msr_perfmodel
from repro.geostat import IterationPlan
from repro.geostat.phases import build_iteration_graph
from repro.platform import get_scenario
from repro.runtime import DataRegistry, PerfModel, TaskGraph
from repro.runtime.dag import chain
from repro.runtime.simfast import compile_template
from repro.workload import Workload

from . import test_adversarial
from .test_fuzz_corpus import CHOLESKY, MSR, _ids
from .test_scenario_table import SCENARIO_KEYS, _configs


def loop_push_plan(tmpl, nodes, homes):
    """Reference eager-push plan: the per-read loop over a ``pushed`` set.

    Walks the template's (reader, handle, last-writer) read stream in
    submission order and keeps the first cross-node occurrence of each
    ``(writer, handle, destination)`` key, appending it to its writer's
    list, or to ``initial_push`` for a handle read before any write.
    """
    node_arr = np.array(nodes, dtype=np.intp)
    push_after = [[] for _ in range(tmpl.n_tasks)]
    initial_push = []
    rp_w = tmpl.rp_w
    if len(rp_w):
        homes_np = np.array(homes, dtype=np.intp)
        src = np.where(rp_w >= 0, node_arr[rp_w], homes_np[tmpl.rp_hid])
        dst = node_arr[tmpl.rp_tid]
        idx = np.nonzero(dst != src)[0]
        pushed = set()
        for w, hid, nd in zip(
            rp_w[idx].tolist(), tmpl.rp_hid[idx].tolist(), dst[idx].tolist()
        ):
            key = (w, hid, nd)
            if key not in pushed:
                pushed.add(key)
                if w >= 0:
                    push_after[w].append((hid, nd))
                else:
                    initial_push.append((hid, nd))
    return push_after, initial_push


def loop_tracked(graph):
    """Reference readiness flags: a task is tracked when some incoming
    edge ``p -> s`` is not covered by a read, i.e. ``s`` reads no handle
    whose last writer at its submission is ``p``."""
    last_writer = {}
    covered_by = []
    for task in graph.tasks:
        covered_by.append(
            {last_writer[h] for h in task.reads if h in last_writer}
        )
        for h in task.writes:
            last_writer[h] = task.tid
    tracked = [False] * len(graph.tasks)
    for p, succs in enumerate(graph.successors):
        for s in succs:
            if p not in covered_by[s]:
                tracked[s] = True
    return tracked


def bound_push_plan(tmpl, nodes, homes):
    """``bind``'s push plan, as lists for an element-wise comparison."""
    plan = tmpl.bind(nodes, homes)
    return [list(p) for p in plan.push_after], list(plan.initial_push)


def assert_same_push_plan(graph, cluster, perfmodel=None):
    """Bind ``graph`` at its own placement; both constructions agree,
    and so do both constructions of the readiness flags."""
    tmpl = compile_template(graph, cluster, perfmodel or PerfModel())
    assert tmpl.tracked == loop_tracked(graph)
    nodes = [t.node for t in graph.tasks]
    homes = [h.home for h in graph.registry]
    want = loop_push_plan(tmpl, nodes, homes)
    assert bound_push_plan(tmpl, nodes, homes) == want
    return want


@pytest.mark.parametrize("key", SCENARIO_KEYS)
def test_scenario_table_push_plans(key):
    scenario = get_scenario(key)
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    n_total = len(cluster)
    for n_fact in _configs(n_total):
        graph = build_iteration_graph(
            cluster, workload, IterationPlan(n_fact=n_fact, n_gen=n_total)
        )
        assert_same_push_plan(graph, cluster)


@pytest.mark.parametrize("platform", CHOLESKY, ids=_ids(CHOLESKY))
def test_fuzz_cholesky_push_plans(platform):
    cluster = platform.build_cluster()
    n_total = len(cluster)
    workload = Workload(
        name=platform.scenario.workload,
        t=platform.tiles,
        nb=max(1, round(platform.matrix_order / platform.tiles)),
    )
    graph = build_iteration_graph(
        cluster, workload,
        IterationPlan(n_fact=1 + platform.index % n_total, n_gen=n_total),
    )
    assert_same_push_plan(graph, cluster)


@pytest.mark.parametrize("platform", MSR, ids=_ids(MSR))
def test_fuzz_msr_push_plans(platform):
    cluster = platform.build_cluster()
    n = 1 + platform.index % len(cluster)
    graph = build_msr_graph(cluster, platform.msr, n)
    assert_same_push_plan(graph, cluster, msr_perfmodel())


ADVERSARIAL = sorted(
    name for name in dir(test_adversarial) if name.startswith("test_")
)


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_adversarial_push_plans(name, monkeypatch):
    """Each adversarial DAG, captured where its test hands it to the oracle."""
    graphs = []
    monkeypatch.setattr(
        test_adversarial, "assert_equivalent",
        lambda graph, cluster, pm=None: graphs.append((graph, cluster, pm)),
    )
    getattr(test_adversarial, name)()
    assert graphs
    for graph, cluster, pm in graphs:
        assert_same_push_plan(graph, cluster, pm)


def _b_graph():
    scenario = get_scenario("b")
    cluster = scenario.build_cluster()
    graph = build_iteration_graph(
        cluster, Workload.from_name(scenario.workload),
        IterationPlan(n_fact=2, n_gen=len(cluster)),
    )
    return graph, cluster


def test_every_task_on_one_node_pushes_nothing():
    graph, cluster = _b_graph()
    tmpl = compile_template(graph, cluster, PerfModel())
    nodes = [0] * tmpl.n_tasks
    homes = [0] * len(graph.registry)
    push_after, initial_push = bound_push_plan(tmpl, nodes, homes)
    assert (push_after, initial_push) == loop_push_plan(tmpl, nodes, homes)
    assert not any(push_after) and not initial_push


def test_graph_without_reads_pushes_nothing():
    cluster = test_adversarial.make_cluster(2)
    g = TaskGraph(DataRegistry())
    for i in range(6):
        h = g.registry.register(f"h{i}", 8, home=i % 2)
        g.submit("t", "p", 1e9, writes=[h])
    push_after, initial_push = assert_same_push_plan(
        g, cluster, test_adversarial.PM
    )
    assert push_after == [[]] * 6 and initial_push == []


def test_many_remote_readers_share_one_push():
    """One version read by many tasks on one remote node: one push."""
    cluster = test_adversarial.make_cluster(2)
    g = TaskGraph(DataRegistry())
    written = g.registry.register("w", 64, home=0)
    unwritten = g.registry.register("u", 64, home=0)
    g.submit("t", "p", 1e9, writes=[written])
    for i in range(8):
        out = g.registry.register(f"o{i}", 8, home=1)
        g.submit("t", "p", 1e9, reads=[written, unwritten], writes=[out])
    push_after, initial_push = assert_same_push_plan(
        g, cluster, test_adversarial.PM
    )
    assert push_after[0] == [(written.hid, 1)]
    assert not any(push_after[1:])
    assert initial_push == [(unwritten.hid, 1)]


def test_explicit_edge_is_tracked():
    """An edge added without a read (``dag.chain``) makes its
    successor tracked; the STF edges here are all read-covered."""
    cluster = test_adversarial.make_cluster(2)
    g = TaskGraph(DataRegistry())
    a = g.registry.register("a", 8, home=0)
    b = g.registry.register("b", 8, home=1)
    g.submit("t", "p", 1e9, writes=[a])
    g.submit("t", "p", 1e9, writes=[b])
    g.submit("t", "p", 1e9, reads=[a, b], writes=[b])
    chain(g, [0, 1])
    assert_same_push_plan(g, cluster, test_adversarial.PM)
    tmpl = compile_template(g, cluster, test_adversarial.PM)
    assert tmpl.tracked == [False, True, False]
