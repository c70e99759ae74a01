"""Discrete-event simulator of the task-based runtime.

Simulates the execution of a :class:`~repro.runtime.dag.TaskGraph` on a
heterogeneous :class:`~repro.platform.cluster.Cluster`:

* each node exposes GPU workers (one per GPU) and a configurable number of
  CPU worker slots whose combined throughput equals the node's CPU rate;
* tasks execute on their owner node (owner-computes); when a worker frees
  it pulls the highest-priority ready task it can run -- the list
  scheduling StarPU's performance-model schedulers implement, so panel
  tasks (high priority) are never stuck behind floods of updates;
* remote inputs move over point-to-point transfers that occupy the
  sender's and the receiver's NIC (one transfer at a time per NIC, which
  produces the network contention effects of Section III);
* transfers are *pushed eagerly*: as soon as a block version is produced
  it is sent toward every node that will consume it, so communication
  overlaps computation the way StarPU's data prefetching does -- this is
  also how the asynchronous inter-phase redistribution happens;
* replicas are cached: once a node holds the current version of a block no
  further transfer is needed until the block is written again.

The engine is a deterministic event-driven simulation over two event
kinds (task became ready / worker became free), O((V + E) log V).  It is
the reference oracle: production code runs the bit-identical
:class:`~repro.runtime.simfast.FastSimulator`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs import get_tracer
from ..platform.cluster import Cluster
from .dag import TaskGraph
from .perfmodel import CPU, GPU, PerfModel


@dataclass(frozen=True)
class TaskRecord:
    """Trace record for one executed task.

    ``worker`` is the lane index of the executing worker within its
    node's worker list (GPUs first, then CPU slots -- the
    :func:`build_workers` ordering).
    """

    tid: int
    name: str
    phase: str
    node: int
    worker_kind: str
    start: float
    end: float
    worker: int


@dataclass(frozen=True)
class TransferRecord:
    """Trace record for one data transfer."""

    hid: int
    src: int
    dst: int
    start: float
    end: float
    nbytes: float


@dataclass
class SimulationResult:
    """Outcome of one simulated task-graph execution."""

    makespan: float
    task_count: int
    transfer_count: int
    comm_bytes: float
    comm_time: float
    phase_spans: Dict[str, Tuple[float, float]]
    task_records: List[TaskRecord] = field(default_factory=list)
    transfer_records: List[TransferRecord] = field(default_factory=list)

    def phase_duration(self, phase: str) -> float:
        """Elapsed wall-clock span of a phase (first start to last end)."""
        if phase not in self.phase_spans:
            raise KeyError(f"phase {phase!r} not present in this execution")
        start, end = self.phase_spans[phase]
        return end - start


class _Worker:
    """Mutable worker state."""

    __slots__ = ("kind", "gflops", "busy")

    def __init__(self, kind: str, gflops: float) -> None:
        self.kind = kind
        self.gflops = gflops
        self.busy = False


def build_workers(cluster: Cluster) -> List[List[_Worker]]:
    """Per-node worker lists (GPUs first so ties favour GPUs)."""
    per_node: List[List[_Worker]] = []
    for node in cluster:
        nt = node.node_type
        workers = [_Worker(GPU, nt.gpu_gflops) for _ in range(nt.gpus)]
        slot_rate = nt.cpu_gflops / nt.cpu_slots
        workers.extend(_Worker(CPU, slot_rate) for _ in range(nt.cpu_slots))
        per_node.append(workers)
    return per_node


# Event kinds.
_TASK_READY = 0
_WORKER_FREE = 1


class Simulator:
    """Reference engine, kept as the oracle for the fast engine.

    Production code runs :class:`~repro.runtime.simfast.FastSimulator`;
    this engine is the plain statement of the scheduling model that the
    differential suite (``tests/runtime/differential``) and the
    benchmark's expected makespans hold the fast engine to, bit for bit.

    Parameters
    ----------
    cluster:
        The (full) heterogeneous cluster; tasks reference node indices in
        its fastest-first ordering.
    perfmodel:
        Kernel duration model; defaults to :class:`PerfModel` defaults.
    trace:
        When true, per-task and per-transfer records are kept in the
        result (needed for Figure 1 style timelines).
    """

    def __init__(
        self,
        cluster: Cluster,
        perfmodel: Optional[PerfModel] = None,
        trace: bool = False,
    ) -> None:
        self.cluster = cluster
        self.perfmodel = perfmodel if perfmodel is not None else PerfModel()
        self.trace = trace

    def run(self, graph: TaskGraph) -> SimulationResult:
        """Execute ``graph`` and return the simulation outcome."""
        tracer = get_tracer()
        host_t0 = tracer.clock.now() if tracer.enabled else 0.0
        tasks = graph.tasks
        n_tasks = len(tasks)
        if n_tasks == 0:
            return SimulationResult(0.0, 0, 0, 0.0, 0.0, {})

        pm = self.perfmodel
        network = self.cluster.network
        nodes = self.cluster.nodes
        n_nodes = len(nodes)
        sizes = graph.registry.sizes()
        workers = build_workers(self.cluster)

        indeg = list(graph.indegree)
        succs = graph.successors
        pred_finish = [0.0] * n_tasks
        finish = [0.0] * n_tasks

        # Each NIC carries `network.streams` concurrent transfers; a slot
        # is one stream's next-free time.
        n_streams = network.streams
        send_slots = [[0.0] * n_streams for _ in range(n_nodes)]
        recv_slots = [[0.0] * n_streams for _ in range(n_nodes)]

        def send_free(node: int) -> float:
            return min(send_slots[node])

        # handle id -> {node: time the current version is available there}
        valid: Dict[int, Dict[int, float]] = {}

        # Eager-push plan: for every write task, the (handle, consumer)
        # pairs to broadcast once the write completes; plus pushes of
        # initially-resident data to their first remote readers.
        push_after: List[List[Tuple[int, int]]] = [[] for _ in range(n_tasks)]
        initial_push: List[Tuple[int, int]] = []
        last_writer: Dict[int, int] = {}
        pushed = set()
        for task in tasks:
            for hid in task.reads:
                w = last_writer.get(hid, -1)
                src = tasks[w].node if w >= 0 else graph.registry[hid].home
                if task.node != src:
                    key = (w, hid, task.node)
                    if key not in pushed:
                        pushed.add(key)
                        if w >= 0:
                            push_after[w].append((hid, task.node))
                        else:
                            initial_push.append((hid, task.node))
            for hid in task.writes:
                last_writer[hid] = task.tid

        # Classify tasks by the worker kinds that should run them on their
        # node: a kind is used only when it is within SLOWDOWN_CAP of the
        # node's best kind for that kernel (StarPU's performance-model
        # schedulers similarly avoid placing kernels on much slower
        # workers).  0 -> CPU queue, 1 -> GPU queue, 2 -> either.
        SLOWDOWN_CAP = 3.0
        qclass = []
        for task in tasks:
            nt = nodes[task.node].node_type
            cpu_rate = (
                (nt.cpu_gflops / nt.cpu_slots) * pm.efficiency[(task.name, CPU)]
                if pm.can_run(task, CPU)
                else 0.0
            )
            gpu_rate = (
                nt.gpu_gflops * pm.efficiency[(task.name, GPU)]
                if nt.gpus and pm.can_run(task, GPU)
                else 0.0
            )
            best = max(cpu_rate, gpu_rate)
            if best <= 0.0:
                raise RuntimeError(
                    f"task {task.name!r} (tid={task.tid}) can run on no "
                    f"worker of node {task.node}"
                )
            on_cpu = cpu_rate * SLOWDOWN_CAP >= best
            on_gpu = gpu_rate * SLOWDOWN_CAP >= best
            qclass.append(2 if (on_cpu and on_gpu) else (0 if on_cpu else 1))

        # Per-node ready queues: [cpu-only, gpu-only, either].
        queues: List[List[List[Tuple[int, int]]]] = [
            [[], [], []] for _ in range(n_nodes)
        ]

        task_records: List[TaskRecord] = []
        transfer_records: List[TransferRecord] = []
        phase_spans: Dict[str, List[float]] = {}
        comm_stats = [0, 0.0, 0.0]  # count, bytes, time
        state = {"scheduled": 0, "makespan": 0.0, "seq": 0}

        events: List[Tuple[float, int, int, int, int]] = []

        def push_event(time: float, kind: int, a: int, b: int = 0) -> None:
            state["seq"] += 1
            heapq.heappush(events, (time, state["seq"], kind, a, b))

        def transfer(hid: int, src: int, dst: int, avail: float) -> float:
            """Schedule one transfer; returns its arrival time at dst."""
            nbytes = sizes[hid]
            s_slots, r_slots = send_slots[src], recv_slots[dst]
            si = min(range(n_streams), key=lambda i: s_slots[i])
            ri = min(range(n_streams), key=lambda i: r_slots[i])
            start = max(avail, s_slots[si], r_slots[ri])
            dur = network.transfer_time(nodes[src], nodes[dst], nbytes)
            end = start + dur
            s_slots[si] = end
            r_slots[ri] = end
            comm_stats[0] += 1
            comm_stats[1] += nbytes
            comm_stats[2] += dur
            if self.trace:
                transfer_records.append(TransferRecord(hid, src, dst, start, end, nbytes))
            return end

        def task_ready_time(tid: int) -> float:
            """Max of predecessor finishes and input arrivals (lazily
            fetching any input the eager pushes did not deliver)."""
            task = tasks[tid]
            dst = task.node
            ready = pred_finish[tid]
            for hid in set(task.reads):
                locs = valid.get(hid)
                if locs is None:
                    locs = valid[hid] = {graph.registry[hid].home: 0.0}
                if dst in locs:
                    ready = max(ready, locs[dst])
                    continue
                src = min(locs, key=lambda s: (max(send_free(s), locs[s]), s))
                locs[dst] = transfer(hid, src, dst, locs[src])
                ready = max(ready, locs[dst])
            return ready

        def complete(tid: int, end: float) -> None:
            """Bookkeeping once a task's finish time is known."""
            task = tasks[tid]
            dst = task.node
            finish[tid] = end
            state["makespan"] = max(state["makespan"], end)
            for hid in task.writes:
                valid[hid] = {dst: end}
            # Tree broadcast: each delivery may relay from any node already
            # holding the version (writer or earlier consumers), so wide
            # fan-outs cost O(log n) per NIC instead of O(n) on the writer.
            for hid, consumer in push_after[tid]:
                locs = valid[hid]
                if consumer not in locs:
                    src = min(locs, key=lambda s: (max(send_free(s), locs[s]), s))
                    locs[consumer] = transfer(hid, src, consumer, locs[src])
            for s in succs[tid]:
                pred_finish[s] = max(pred_finish[s], end)
                indeg[s] -= 1
                if indeg[s] == 0:
                    push_event(task_ready_time(s), _TASK_READY, s)

        def dispatch(node: int, now: float) -> None:
            """Run ready tasks on free workers of ``node`` at time ``now``."""
            ws = workers[node]
            qs = queues[node]
            while True:
                free_cpu = [w for w in ws if not w.busy and w.kind == CPU]
                free_gpu = [w for w in ws if not w.busy and w.kind == GPU]
                if not free_cpu and not free_gpu:
                    return
                # Highest-priority ready task servable by a free worker.
                best_q = -1
                best_key = None
                for qi, q in enumerate(qs):
                    if not q:
                        continue
                    if qi == 0 and not free_cpu:
                        continue
                    if qi == 1 and not free_gpu:
                        continue
                    if best_key is None or q[0] < best_key:
                        best_key = q[0]
                        best_q = qi
                if best_q < 0:
                    return
                _negp, _s, tid = heapq.heappop(qs[best_q])
                task = tasks[tid]
                # Best eligible free worker: highest effective rate.
                pool = (
                    free_cpu if best_q == 0
                    else free_gpu if best_q == 1
                    else free_cpu + free_gpu
                )
                worker = max(
                    pool, key=lambda w: w.gflops * pm.efficiency[(task.name, w.kind)]
                )
                worker.busy = True
                wi = ws.index(worker)
                end = now + pm.duration(task, worker.kind, worker.gflops)
                complete(tid, end)
                state["scheduled"] += 1
                span = phase_spans.setdefault(task.phase, [now, end])
                span[0] = min(span[0], now)
                span[1] = max(span[1], end)
                if self.trace:
                    task_records.append(
                        TaskRecord(
                            tid, task.name, task.phase, node, worker.kind,
                            now, end, worker=wi,
                        )
                    )
                push_event(end, _WORKER_FREE, node, wi)

        # Push initially-resident remote inputs right away (time 0).
        for hid, dst in initial_push:
            home = graph.registry[hid].home
            locs = valid.setdefault(hid, {home: 0.0})
            if dst not in locs:
                locs[dst] = transfer(hid, home, dst, locs[home])

        for tid in range(n_tasks):
            if indeg[tid] == 0:
                push_event(task_ready_time(tid), _TASK_READY, tid)

        while events:
            # Apply every state change at this timestamp before dispatching,
            # so simultaneous arrivals compete by priority, not event order.
            now = events[0][0]
            dirty = set()
            while events and events[0][0] == now:
                _now, _seq, kind, a, b = heapq.heappop(events)
                if kind == _TASK_READY:
                    task = tasks[a]
                    node = task.node
                    qi = qclass[a]
                    if not any(
                        (w.kind == CPU and qi != 1) or (w.kind == GPU and qi != 0)
                        for w in workers[node]
                    ):
                        raise RuntimeError(
                            f"task {task.name!r} (tid={a}) has no eligible "
                            f"worker on node {node} "
                            f"({nodes[node].node_type.name})"
                        )
                    state["seq"] += 1
                    heapq.heappush(
                        queues[node][qi], (-task.priority, state["seq"], a)
                    )
                    dirty.add(node)
                else:
                    workers[a][b].busy = False
                    dirty.add(a)
            for node in sorted(dirty):
                dispatch(node, now)

        if state["scheduled"] != n_tasks:
            raise ValueError(
                f"task graph has a cycle: only {state['scheduled']}/{n_tasks} "
                f"tasks ran"
            )

        if tracer.enabled:
            # Simulated (virtual) time vs host time of the simulation
            # itself -- the Figure 1/2 phase spans become queryable from
            # any traced run without re-running with trace=True.
            tracer.event(
                "simulator.run",
                makespan=state["makespan"],
                tasks=n_tasks,
                transfers=comm_stats[0],
                comm_s=comm_stats[2],
                host_s=tracer.clock.now() - host_t0,
                phases={p: s[1] - s[0] for p, s in phase_spans.items()},
            )
            tracer.count("simulator.runs")

        return SimulationResult(
            makespan=state["makespan"],
            task_count=n_tasks,
            transfer_count=comm_stats[0],
            comm_bytes=comm_stats[1],
            comm_time=comm_stats[2],
            phase_spans={p: (s[0], s[1]) for p, s in phase_spans.items()},
            task_records=task_records,
            transfer_records=transfer_records,
        )
