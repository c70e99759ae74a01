"""Seeded-defect harness: every engine mutation must be caught.

The differential oracle is only as good as its sensitivity.  This
harness injects each known-bad mutation into the fast engine
(``FastSimulator(..., _defects=(kind,))``) on a workload that engages
the mutated machinery and asserts the reference-vs-fast comparison
*detects* it.  A defect the suite cannot see would mean the oracle has
a blind spot exactly where the fast path is most likely to break.
"""

import pytest

from repro.geostat import IterationPlan
from repro.geostat.phases import build_iteration_graph
from repro.platform import Cluster, NetworkModel, NodeType, get_scenario
from repro.runtime import (
    DataRegistry,
    FastSimulator,
    PerfModel,
    Simulator,
    TaskGraph,
)
from repro.runtime.simfast import DEFECT_KINDS
from repro.workload import Workload

from .oracle import results_differ
from .test_adversarial import PM as ADVERSARIAL_PM
from .test_adversarial import initial_push_graph, pure_war_graph


def _scenario_graph(key="b", n_fact=1):
    scenario = get_scenario(key)
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    graph = build_iteration_graph(
        cluster, workload, IterationPlan(n_fact=n_fact, n_gen=len(cluster))
    )
    return graph, cluster


def test_defect_kinds_is_the_locked_set():
    assert DEFECT_KINDS == (
        "drop_transfer", "tie_break", "stale_send_min", "untracked"
    )


def test_unknown_defect_rejected():
    cluster = get_scenario("b").build_cluster()
    with pytest.raises(ValueError, match="defect"):
        FastSimulator(cluster, PerfModel(), _defects=("off_by_one",))


def test_clean_run_matches_reference():
    """Sanity: with no defects injected the engines agree."""
    graph, cluster = _scenario_graph()
    ref = Simulator(cluster, PerfModel(), trace=True).run(graph)
    fast = FastSimulator(cluster, PerfModel(), trace=True).run(graph)
    assert not results_differ(ref, fast)


def test_drop_transfer_defect_is_caught():
    """Losing a single eager push must be visible in the record stream."""
    graph, cluster = _scenario_graph(n_fact=2)
    ref = Simulator(cluster, PerfModel(), trace=True).run(graph)
    bad = FastSimulator(
        cluster, PerfModel(), trace=True, _defects=("drop_transfer",)
    ).run(graph)
    assert results_differ(ref, bad)


def test_drop_transfer_drops_the_last_push_of_the_first_pusher():
    """The mutation loses exactly one push: the first pushing task's last.

    ``w`` (node 0) pushes ``a`` then ``b`` to node 1; ``v`` (node 2)
    then pushes ``e`` there, through a single-stream NIC.  Without the
    push of ``b`` the reader fetches it only once ``v`` has made it
    ready, behind ``e``: that one transfer moves later and the push of
    ``a`` is untouched.
    """
    unit = NodeType(
        name="unit", site="SD", category="S", cpu_desc="", gpu_desc="",
        cpu_gflops=1.0, gpus=0, gpu_gflops=0.0, nic_gbps=8.0,
        memory_gb=1.0, cpu_slots=1,
    )
    net = NetworkModel(
        latency_s=0.0, backbone_gbps=None, efficiency=1.0, streams=1
    )
    cluster = Cluster([(unit, 3)], network=net)
    pm = PerfModel(efficiency={("t", "cpu"): 1.0}, overhead_s=0.0)
    g = TaskGraph(DataRegistry())
    a = g.registry.register("a", 1 << 20, home=0)
    b = g.registry.register("b", 1 << 20, home=0)
    e = g.registry.register("e", 1 << 20, home=2)
    y = g.registry.register("y", 0, home=1)
    g.submit("t", "p", 1e9, writes=[a, b])  # w
    g.submit("t", "p", 1e9, writes=[e])  # v
    g.submit("t", "p", 1e9, reads=[a, b, e], writes=[y])
    ref = Simulator(cluster, pm, trace=True).run(g)
    bad = FastSimulator(
        cluster, pm, trace=True, _defects=("drop_transfer",)
    ).run(g)
    ref_a, ref_b, _ = ref.transfer_records
    assert [t.hid for t in ref.transfer_records] == [a.hid, b.hid, e.hid]
    assert [t.hid for t in bad.transfer_records] == [a.hid, e.hid, b.hid]
    assert bad.transfer_records[0] == ref_a
    assert bad.transfer_records[2].start > ref_b.start


def test_tie_break_defect_is_caught():
    """Flipping the equal-rate CPU/GPU tie must change worker kinds.

    Uses a node whose CPU and GPU rates are identical so the defect's
    flipped preference is the *only* difference.
    """
    tie = NodeType(
        name="tie", site="SD", category="L", cpu_desc="", gpu_desc="g",
        cpu_gflops=1.0, gpus=1, gpu_gflops=1.0, nic_gbps=8.0,
        memory_gb=1.0, cpu_slots=1,
    )
    net = NetworkModel(latency_s=0.0, backbone_gbps=None, efficiency=1.0)
    cluster = Cluster([(tie, 1)], network=net)
    pm = PerfModel(
        efficiency={("t", "cpu"): 1.0, ("t", "gpu"): 1.0}, overhead_s=0.0
    )
    g = TaskGraph(DataRegistry())
    a = g.registry.register("a", 0, home=0)
    b = g.registry.register("b", 0, home=0)
    g.submit("t", "p", 1e9, writes=[a])
    g.submit("t", "p", 1e9, reads=[a], writes=[b])
    ref = Simulator(cluster, pm, trace=True).run(g)
    bad = FastSimulator(
        cluster, pm, trace=True, _defects=("tie_break",)
    ).run(g)
    assert results_differ(ref, bad)
    assert [t.worker_kind for t in ref.task_records] != [
        t.worker_kind for t in bad.task_records
    ]


def test_stale_send_min_defect_is_caught():
    """A send minimum set to the slot just booked delays the next send.

    The home sends both initial pushes at t=0 on its two streams; with
    the defect the second waits for the first stream to free.
    """
    cluster, g = initial_push_graph(streams=2)
    ref = Simulator(cluster, ADVERSARIAL_PM, trace=True).run(g)
    bad = FastSimulator(
        cluster, ADVERSARIAL_PM, trace=True, _defects=("stale_send_min",)
    ).run(g)
    assert results_differ(ref, bad)
    assert [t.start for t in ref.transfer_records] == [0.0, 0.0]
    first, second = bad.transfer_records
    assert second.start == first.end > 0.0


def test_untracked_defect_is_caught():
    """Skipping the pure WAR edge's finish time starts the writer early."""
    cluster, g, r, w = pure_war_graph()
    ref = Simulator(cluster, ADVERSARIAL_PM, trace=True).run(g)
    bad = FastSimulator(
        cluster, ADVERSARIAL_PM, trace=True, _defects=("untracked",)
    ).run(g)
    assert results_differ(ref, bad)
    assert bad.task_records[-1].tid == w
    assert bad.task_records[-1].start < ref.task_records[-1].start


@pytest.mark.parametrize("kind", DEFECT_KINDS)
def test_every_defect_kind_has_a_catching_workload(kind):
    """Umbrella: each mutation in DEFECT_KINDS is caught by the suite.

    Mirrors the dedicated tests above but iterates the locked tuple, so
    adding a new defect kind without a catching workload fails here.
    The iteration graphs have no tracked task, so ``untracked`` needs
    the hand-built pure WAR edge.
    """
    dedicated = {
        "tie_break": test_tie_break_defect_is_caught,
        "untracked": test_untracked_defect_is_caught,
    }
    if kind in dedicated:
        dedicated[kind]()
        return
    graph, cluster = _scenario_graph(n_fact=2)
    ref = Simulator(cluster, PerfModel(), trace=True).run(graph)
    bad = FastSimulator(
        cluster, PerfModel(), trace=True, _defects=(kind,)
    ).run(graph)
    assert results_differ(ref, bad)
