"""Flat-plan engine: the discrete-event simulator production code runs.

:class:`FastSimulator` is the one engine production code builds (sweeps,
timelines, figure drivers).  The reference
:class:`~repro.runtime.simulator.Simulator` stays only as its oracle:
the fast engine produces **bit-identical** results -- the same
:class:`~repro.runtime.simulator.SimulationResult`, the same
``TaskRecord``/``TransferRecord`` streams, the same obs trace bytes,
and the same error behaviour.  It runs the same task-by-task event loop
as the reference; what it saves is the work the reference repeats on
every run and the cost of its event and ready-queue tuples.

Five mechanisms, each exact, never approximate:

1. **Flat compilation** (:func:`compile_template` + :meth:`PlanTemplate.bind`):
   the per-task quantities the reference engine re-derives inside its
   event loop -- queue class, per-kind durations, deduplicated read
   sets, eager-push plans, worker preferences -- are precomputed as flat
   lists, with the duration and classification arithmetic vectorized
   over numpy float64 (elementwise IEEE-754 ops match the reference's
   scalar CPython ops bit for bit).  The graph's structure is compiled
   once into a :class:`PlanTemplate`; each placement binds it into a
   :class:`GraphPlan`.  An iteration graph's structure does not depend
   on ``n_fact``, so a sweep compiles once per scenario and binds once
   per configuration instead of rebuilding and re-deriving per run.
   Binding is array work too: the eager-push plan keeps the first
   occurrence of each ``(writer, handle, destination)`` key among the
   cross-node reads with ``np.unique(..., return_index=True)`` and
   groups the kept entries by writer with a stable argsort, so no
   Python loop walks the reads.  Every task without pushes shares one
   empty tuple instead of owning a fresh list.

2. **A calendar of exact timestamps**: pending events live in a heap
   of *distinct* float timestamps plus a dict that maps each timestamp
   to its events in push order (a tid for a task-ready event, ``~lane``
   for a worker-free one).  Each node's ready queues hold one int per
   entry, ``rank << 2b | qseq << b | tid``: ``rank`` is the task's
   priority rank (0 for the highest), computed once per
   :class:`PlanTemplate`, and ``qseq`` counts queue insertions.
   Ready-time computation, dispatch and completion (writes, eager
   pushes, successors) run inline in the loop, where the reference
   calls ``task_ready_time``, ``dispatch`` and ``complete``.  Why this
   is exact:

   * The reference's heap pops events of equal time in push-sequence
     order; a list appended in push order gives the same order.
   * Only the *relative* order of insertions into one node's queues
     breaks priority ties, and a counter of queue insertions alone
     keeps that order.  So the packed int orders exactly like the
     reference's ``(-priority, seq, tid)``.
   * The reference pushes each lane's worker-free event right after
     completing its task, and the calendar appends it at the same
     point, so the push order is the reference's.  (Only the previous
     fast engine grouped freed lanes per dispatch.)
   * An event pushed at ``now`` during dispatch (a zero-duration task)
     opens a fresh bucket after ``now``'s was popped; it is handled on
     the next pass, as in the reference.
   * Equal floats, ``-0.0 == 0.0`` included, share one bucket, keyed by
     the first value pushed.  Equal floats differ at most in the sign of
     zero, and no simulated time is ``-0.0`` (each is a sum or maximum
     of ``0.0`` and non-negative durations), so ``now`` carries the
     reference's bits.

3. **A per-node send minimum**: ``send_min[nd] == min(send_slots[nd])``,
   refreshed by the one routine that changes a send slot.  The relay
   choice reads it once per holder where the reference calls
   ``send_free``, and a send takes its stream as the first slot equal
   to it, the reference's first minimum.

4. **One fetch routine**: a push or a lazy read is one call that picks
   the source and books the transfer.  Initial pushes pass the
   handle's home as the source, as the reference does: a best-holder
   choice may tie with an earlier destination and relay from it.

5. **Readiness without predecessor finish times on read-covered
   edges**: :func:`compile_template` marks a task *tracked* when some
   incoming edge ``p -> s`` is not covered by a read, i.e. ``s`` reads
   no handle whose last writer is ``p`` (a pure WAR or WAW edge).  Only
   tracked tasks keep ``pred_finish``.  This is exact: when ``s``
   becomes ready, a covering ``p``'s version is still current (a later
   writer would wait for ``s``), a local copy carries ``p``'s end and a
   transfer starts no earlier than its source copy, so ``p``'s end is
   never later than that handle's arrival and ``max(arrivals)`` equals
   the reference's ``max(pred_finish, arrivals)`` bit for bit.

Replication contract (enforced by ``tests/runtime/differential``):

* queue-class classification and its ``RuntimeError`` (first offending
  task in submission order, same message);
* eager-push plan construction order (reads before writes, first
  occurrence of each ``(writer, hid, node)`` key, per-writer lists in
  read order -- pinned against the reference's per-read loop by
  ``test_push_plan.py``);
* ``set(task.reads)`` deduplication order (a CPython int-set's iteration
  order depends only on its contents and insertion sequence, so
  freezing the tuple at compile time is exact);
* NIC stream selection (first minimum), relay-source selection
  ``min(locs, key=(max(send_free, avail), node))``, initial pushes
  sent from the handle's home, and the
  count/bytes/seconds accumulation order of ``comm_stats``;
* event semantics: all events at a timestamp apply before dispatching,
  dirty nodes dispatch in sorted order, queue ties break by insertion
  sequence, the worker is the first rate-maximum over free CPUs then
  free GPUs (so rate ties favour the lowest CPU lane);
* phase-span accumulation and record field-for-field equality in the
  reference's append order;
* empty-graph early return, cycle ``ValueError``, ineligible-worker
  ``RuntimeError``, and the ``simulator.run`` tracer event/counter.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_tracer
from ..platform.cluster import Cluster
from .dag import TaskGraph
from .perfmodel import CPU, GPU, PerfModel
from .simulator import SimulationResult, TaskRecord, TransferRecord

#: Mutations the seeded-defect harness may inject (`_defects` parameter).
DEFECT_KINDS = ("drop_transfer", "tie_break", "stale_send_min", "untracked")


class GraphPlan:
    """A task graph compiled against one (cluster, perfmodel) pair.

    Everything the event loop needs, as flat parallel lists/arrays.
    :meth:`FastSimulator.run` builds one per call; the plan-batched sweep
    path shares compiles across rebound iteration graphs.
    """

    __slots__ = (
        "n_tasks", "n_nodes", "names", "phases", "nodes", "queue_keys",
        "reads_dedup", "writes", "succs", "indeg0", "tracked", "push_after",
        "initial_push", "qclass", "eligible", "dur_cpu", "dur_gpu",
        "prefer_gpu", "sizes", "homes", "gpu_counts", "cpu_slot_counts",
        "bw", "latency", "n_streams", "node_type_names",
    )


class PlanTemplate:
    """Placement-independent compile of a graph on one (cluster, model).

    Everything :func:`compile_plan` derives from the task graph's
    *structure* -- dependencies, priorities, flops, read/write sets,
    kernel capabilities -- lives here; :meth:`bind` adds the
    placement-dependent arrays for one ``(nodes, homes)`` assignment and
    returns a runnable :class:`GraphPlan`.  The batched sweep path
    exploits that an iteration graph's structure is invariant across
    ``n_fact``: one template per scenario, one cheap bind per config.
    """

    __slots__ = (
        "n_tasks", "n_nodes", "names", "phases", "queue_keys",
        "reads_dedup", "writes", "succs", "indeg0", "tracked", "sizes",
        "gpu_counts", "cpu_slot_counts", "node_type_names", "bw",
        "latency", "n_streams",
        "flops", "can_c", "can_g_base", "eff_c", "eff_g",
        "slot_rates_np", "gpu_rates_np", "gpu_nonzero", "slot_nonzero",
        "overhead_s", "rp_tid", "rp_hid", "rp_w", "n_handles",
    )

    def bind(self, nodes: Sequence[int], homes: Sequence[int]) -> GraphPlan:
        """Produce the :class:`GraphPlan` for one placement assignment.

        ``nodes`` is the per-task execution node and ``homes`` the
        per-handle home node indexed by handle id (lists or integer
        arrays); both must describe the same graph this template was
        compiled from.  Raises the reference engine's classification
        ``RuntimeError`` (first offending task in submission order) when
        a task can run nowhere under this placement.
        """
        n = self.n_tasks
        plan = GraphPlan()
        plan.n_tasks = n
        plan.n_nodes = self.n_nodes
        plan.names = self.names
        plan.phases = self.phases
        plan.queue_keys = self.queue_keys
        plan.reads_dedup = self.reads_dedup
        plan.writes = self.writes
        plan.succs = self.succs
        plan.indeg0 = self.indeg0
        plan.tracked = self.tracked
        plan.sizes = self.sizes
        plan.gpu_counts = self.gpu_counts
        plan.cpu_slot_counts = self.cpu_slot_counts
        plan.node_type_names = self.node_type_names
        plan.bw = self.bw
        plan.latency = self.latency
        plan.n_streams = self.n_streams
        node_arr = np.asarray(nodes, dtype=np.intp)
        homes_np = np.asarray(homes, dtype=np.intp)
        plan.nodes = node_arr.tolist()
        plan.homes = homes_np.tolist()
        plan.push_after, plan.initial_push = self._push_plan(
            node_arr, homes_np
        )

        # Vectorized duration model + queue classification.  Every
        # elementwise float64 op mirrors the scalar expression of
        # PerfModel.duration / the reference's qclass loop bit for bit.
        can_c = self.can_c
        can_g = self.gpu_nonzero[node_arr] & self.can_g_base
        slot_rate_t = self.slot_rates_np[node_arr]
        gpu_rate_t = self.gpu_rates_np[node_arr]

        cpu_rate = np.where(can_c, slot_rate_t * self.eff_c, 0.0)
        gpu_rate = np.where(can_g, gpu_rate_t * self.eff_g, 0.0)
        best = np.maximum(cpu_rate, gpu_rate)
        runnable = best > 0.0
        if not runnable.all():
            bad = int(np.argmin(runnable))
            raise RuntimeError(
                f"task {self.names[bad]!r} (tid={bad}) can run on no "
                f"worker of node {plan.nodes[bad]}"
            )
        on_cpu = cpu_rate * 3.0 >= best  # SLOWDOWN_CAP
        on_gpu = gpu_rate * 3.0 >= best
        qclass_np = np.where(on_cpu & on_gpu, 2, np.where(on_cpu, 0, 1))
        plan.qclass = qclass_np.tolist()

        overhead = self.overhead_s
        with np.errstate(divide="ignore", invalid="ignore"):
            dur_c = overhead + self.flops / ((slot_rate_t * self.eff_c) * 1e9)
            dur_g = overhead + self.flops / ((gpu_rate_t * self.eff_g) * 1e9)
        plan.dur_cpu = np.where(can_c, dur_c, np.inf).tolist()
        plan.dur_gpu = np.where(can_g, dur_g, np.inf).tolist()
        # Class-2 worker choice: the reference takes the first rate
        # maximum over free CPUs then free GPUs, so a GPU only wins
        # strictly.
        plan.prefer_gpu = (gpu_rate > cpu_rate).tolist()

        # Eligibility of the task's queue class on its node, the
        # predicate the reference evaluates per ready event.
        elig_np = (self.slot_nonzero[node_arr] & (qclass_np != 1)) | (
            self.gpu_nonzero[node_arr] & (qclass_np != 0)
        )
        plan.eligible = elig_np.tolist()
        return plan

    def _push_plan(
        self, node_arr: np.ndarray, homes_np: np.ndarray
    ) -> Tuple[List[tuple], List[Tuple[int, int]]]:
        """Eager-push plan: ``(push_after, initial_push)``.

        The reference walks every read in submission order (reads before
        writes per task) and keeps the first occurrence of each
        ``(writer, handle, destination)`` key whose source node differs
        from the reader's; a kept entry goes to its writer's list, or to
        ``initial_push`` for a handle read before any write.  Here the
        structural (reader, handle, last-writer) stream is precomputed,
        ``np.unique``'s ``return_index`` finds each key's first
        occurrence, and a stable argsort groups the kept entries by
        writer -- the same entries in the same order.  Tasks without
        pushes share one empty tuple.
        """
        rp_w = self.rp_w
        src = np.where(rp_w >= 0, node_arr[rp_w], homes_np[self.rp_hid])
        dst = node_arr[self.rp_tid]
        idx = np.flatnonzero(dst != src)
        push_after: List[tuple] = [()] * self.n_tasks
        initial_push: List[Tuple[int, int]] = []
        if not len(idx):
            return push_after, initial_push
        w = rp_w[idx]
        hid = self.rp_hid[idx]
        dst = dst[idx]
        # One int64 key per (writer + 1, handle, destination) triple,
        # below (n_tasks + 1) * n_handles * n_nodes, so it cannot wrap;
        # np.unique's return_index is each key's first occurrence.
        key = (
            (w + 1).astype(np.int64) * self.n_handles + hid
        ) * self.n_nodes + dst
        first = np.sort(np.unique(key, return_index=True)[1])
        # A stable sort by writer keeps each group in read order; the
        # initial pushes (writer -1) form the first group.
        order = first[np.argsort(w[first], kind="stable")]
        w = w[order]
        pairs = list(zip(hid[order].tolist(), dst[order].tolist()))
        bounds = (np.flatnonzero(w[1:] != w[:-1]) + 1).tolist()
        starts = [0] + bounds
        for writer, a, b in zip(
            w[starts].tolist(), starts, bounds + [len(pairs)]
        ):
            if writer < 0:
                initial_push = pairs[a:b]
            else:
                push_after[writer] = tuple(pairs[a:b])
        return push_after, initial_push


def compile_template(
    graph: TaskGraph, cluster: Cluster, perfmodel: PerfModel
) -> PlanTemplate:
    """Compile the placement-independent half of a plan.

    See :class:`PlanTemplate`; ``compile_template(...).bind(...)`` with
    the graph's own placement is exactly :func:`compile_plan`.
    """
    tasks = graph.tasks
    n = len(tasks)
    tmpl = PlanTemplate()
    tmpl.n_tasks = n
    nodes = cluster.nodes
    tmpl.n_nodes = len(nodes)
    gpu_counts: List[int] = []
    slot_counts: List[int] = []
    slot_rates: List[float] = []
    gpu_rates: List[float] = []
    type_names: List[str] = []
    for node in cluster:
        nt = node.node_type
        gpu_counts.append(nt.gpus)
        slot_counts.append(nt.cpu_slots)
        slot_rates.append(nt.cpu_gflops / nt.cpu_slots)
        gpu_rates.append(nt.gpu_gflops)
        type_names.append(nt.name)
    tmpl.gpu_counts = gpu_counts
    tmpl.cpu_slot_counts = slot_counts
    tmpl.node_type_names = type_names

    tmpl.names = [t.name for t in tasks]
    tmpl.phases = [t.phase for t in tasks]
    # Ready-queue keys: rank of the priority (0 = highest) above two
    # fields of ``n.bit_length()`` bits, the insertion sequence the engine adds
    # and the tid, so one int orders like the reference's (-prio, seq).
    prios = [t.priority for t in tasks]
    rank = {p: r for r, p in enumerate(sorted(set(prios), reverse=True))}
    bits = n.bit_length()
    tmpl.queue_keys = [
        (rank[p] << (2 * bits)) | tid for tid, p in enumerate(prios)
    ]
    # The reference deduplicates reads with set() on every readiness
    # computation; an int set's iteration order depends only on its
    # contents and insertion sequence, so one materialization is exact.
    tmpl.reads_dedup = [tuple(set(t.reads)) for t in tasks]
    tmpl.writes = [t.writes for t in tasks]
    tmpl.succs = graph.successors
    tmpl.indeg0 = graph.indegree
    tmpl.sizes = graph.registry.sizes()

    eff = perfmodel.efficiency
    tmpl.flops = np.array([t.flops for t in tasks], dtype=np.float64)
    tmpl.can_c = np.array(
        [perfmodel.can_run(t, CPU) for t in tasks], dtype=bool
    )
    tmpl.can_g_base = np.array(
        [perfmodel.can_run(t, GPU) for t in tasks], dtype=bool
    )
    tmpl.eff_c = np.array(
        [eff.get((t.name, CPU), 0.0) for t in tasks], dtype=np.float64
    )
    tmpl.eff_g = np.array(
        [eff.get((t.name, GPU), 0.0) for t in tasks], dtype=np.float64
    )
    tmpl.slot_rates_np = np.array(slot_rates, dtype=np.float64)
    tmpl.gpu_rates_np = np.array(gpu_rates, dtype=np.float64)
    tmpl.gpu_nonzero = np.array([g > 0 for g in gpu_counts], dtype=bool)
    tmpl.slot_nonzero = np.array([s > 0 for s in slot_counts], dtype=bool)
    tmpl.overhead_s = perfmodel.overhead_s

    # Flattened (reader, handle, last-writer) read-occurrence stream in
    # submission order.  The STF last-writer chain is structural --
    # placement never affects edges -- so it binds to any node vector.
    last_writer: Dict[int, int] = {}
    rp_tid: List[int] = []
    rp_hid: List[int] = []
    rp_w: List[int] = []
    starts: List[int] = []
    for tid in range(n):
        starts.append(len(rp_w))
        for hid in tasks[tid].reads:
            rp_tid.append(tid)
            rp_hid.append(hid)
            rp_w.append(last_writer.get(hid, -1))
        for hid in tmpl.writes[tid]:
            last_writer[hid] = tid
    tmpl.rp_tid = np.array(rp_tid, dtype=np.intp)
    tmpl.rp_hid = np.array(rp_hid, dtype=np.intp)
    tmpl.rp_w = np.array(rp_w, dtype=np.intp)
    tmpl.n_handles = 1 + max(tmpl.sizes, default=-1)

    # Readiness tracking: an edge p -> s is read-covered when s reads a
    # handle whose last writer is p, i.e. p is among s's entries of the
    # read stream.  A task is tracked when some incoming edge is not (a
    # pure WAR or WAW edge, or one added by hand); only tracked tasks
    # need their predecessors' finish times.  A loop over the edges
    # peaks at a fraction of the memory of an array join of edge and
    # read keys (0.2 against 6.5 MB on c at 48 tiles).
    starts.append(len(rp_w))
    tracked = [False] * n
    for p, ss in enumerate(tmpl.succs):
        for s in ss:
            if p not in rp_w[starts[s]:starts[s + 1]]:
                tracked[s] = True
    tmpl.tracked = tracked

    # Network: effective link bandwidths + latency (the exact
    # NetworkModel.transfer_time decomposition; intra-node is zero).
    network = cluster.network
    tmpl.latency = network.latency_s
    tmpl.n_streams = network.streams
    tmpl.bw = [
        [
            network.link_bandwidth(nodes[s], nodes[d]) if s != d else 0.0
            for d in range(tmpl.n_nodes)
        ]
        for s in range(tmpl.n_nodes)
    ]
    return tmpl


def compile_plan(
    graph: TaskGraph, cluster: Cluster, perfmodel: PerfModel
) -> GraphPlan:
    """Precompute the flat execution plan for ``graph`` on ``cluster``.

    Raises the reference engine's classification ``RuntimeError`` (first
    offending task in submission order) when a task can run nowhere.
    """
    tmpl = compile_template(graph, cluster, perfmodel)
    return tmpl.bind(
        [t.node for t in graph.tasks], [h.home for h in graph.registry]
    )


def traced_run(run: Callable[[], SimulationResult]) -> SimulationResult:
    """Call ``run`` and report it to the active tracer as ``Simulator.run``
    does: one ``simulator.run`` event and ``simulator.runs`` count per
    non-empty result, its ``host_s`` between two clock reads around the
    call (an empty graph reads the clock once and reports nothing)."""
    tracer = get_tracer()
    if not tracer.enabled:
        return run()
    host_t0 = tracer.clock.now()
    result = run()
    if result.task_count:
        tracer.event(
            "simulator.run",
            makespan=result.makespan,
            tasks=result.task_count,
            transfers=result.transfer_count,
            comm_s=result.comm_time,
            host_s=tracer.clock.now() - host_t0,
            phases={p: s[1] - s[0] for p, s in result.phase_spans.items()},
        )
        tracer.count("simulator.runs")
    return result


class FastSimulator:
    """Production engine; bit-identical to the reference (module docstring).

    Takes the reference :class:`~repro.runtime.simulator.Simulator`'s
    ``(cluster, perfmodel, trace)``; ``_defects`` is reserved for the
    seeded-defect harness in ``tests/runtime/differential`` and must
    stay empty in production use.
    """

    def __init__(
        self,
        cluster: Cluster,
        perfmodel: Optional[PerfModel] = None,
        trace: bool = False,
        _defects: Tuple[str, ...] = (),
    ) -> None:
        unknown = set(_defects) - set(DEFECT_KINDS)
        if unknown:
            raise ValueError(f"unknown defect kinds: {sorted(unknown)}")
        self.cluster = cluster
        self.perfmodel = perfmodel if perfmodel is not None else PerfModel()
        self.trace = trace
        self.defects = frozenset(_defects)

    def run(self, graph: TaskGraph) -> SimulationResult:
        """Execute ``graph``; bit-identical to ``Simulator.run``."""

        def execute() -> SimulationResult:
            if not graph.tasks:
                return SimulationResult(0.0, 0, 0, 0.0, 0.0, {})
            plan = compile_plan(graph, self.cluster, self.perfmodel)
            return self.run_plan(plan)

        return traced_run(execute)

    # -- core engine ---------------------------------------------------------

    def run_plan(self, plan: GraphPlan) -> SimulationResult:
        """Execute a precompiled :class:`GraphPlan` (no tracer wrapping)."""
        # Local aliases: every attribute fetch counts in the hot loop.
        node_of = plan.nodes
        names = plan.names
        phases_of = plan.phases
        queue_keys = plan.queue_keys
        reads_dedup = plan.reads_dedup
        writes_of = plan.writes
        succs = plan.succs
        tracked = plan.tracked
        push_after = plan.push_after
        qclass = plan.qclass
        eligible = plan.eligible
        dur_cpu = plan.dur_cpu
        dur_gpu = plan.dur_gpu
        prefer_gpu = plan.prefer_gpu
        sizes = plan.sizes
        homes = plan.homes
        gpu_counts = plan.gpu_counts
        latency = plan.latency
        bw = plan.bw
        n_streams = plan.n_streams
        n_tasks = plan.n_tasks
        n_nodes = plan.n_nodes
        trace = self.trace
        drop_pending = "drop_transfer" in self.defects
        if "tie_break" in self.defects:
            # Seeded defect: flip the class-2 rate tie-break toward GPUs
            # (equal per-kind durations imply equal effective rates).
            prefer_gpu = [
                pg or (dur_gpu[i] == dur_cpu[i])
                for i, pg in enumerate(prefer_gpu)
            ]
        if "untracked" in self.defects:
            # Seeded defect: treat every task as read-covered.
            tracked = [False] * n_tasks

        # Plain lists, not numpy: the loop touches single elements, and
        # scalar numpy indexing costs ~10x a list index.
        indeg = list(plan.indeg0)
        pred_finish = [0.0] * n_tasks

        send_slots = [[0.0] * n_streams for _ in range(n_nodes)]
        # send_min[nd] == min(send_slots[nd]), refreshed by each send.
        send_min = [0.0] * n_nodes
        # Seeded defect: a send sets send_min to the slot it just booked,
        # not to the new minimum, so the next send waits for that stream.
        stale_min = "stale_send_min" in self.defects
        recv_slots = [[0.0] * n_streams for _ in range(n_nodes)]
        # Per handle: {node: time its current version is available
        # there}.  The reference creates the {home: 0.0} entry on first
        # use; it holds the same until the first write replaces it.
        valid = [{home: 0.0} for home in homes]
        queues: List[List[List[int]]] = [[[], [], []] for _ in range(n_nodes)]
        # Idle lanes per node and kind, as ascending *global* lane numbers
        # (node nd's lane i is lane_base[nd] + i; GPU lanes come first,
        # the build_workers order).  A worker-free event is ~global lane.
        lane_base: List[int] = []
        lane_node: List[int] = []
        lane_free: List[List[int]] = []
        free_g: List[List[int]] = []
        free_c: List[List[int]] = []
        for nd, (g, s) in enumerate(zip(gpu_counts, plan.cpu_slot_counts)):
            base = len(lane_node)
            fg = list(range(base, base + g))
            fc = list(range(base + g, base + g + s))
            lane_base.append(base)
            free_g.append(fg)
            free_c.append(fc)
            lane_node.extend([nd] * (g + s))
            lane_free.extend([fg] * g + [fc] * s)

        task_records: List[TaskRecord] = []
        transfer_records: List[TransferRecord] = []
        phase_spans: Dict[str, List[float]] = {}
        comm_stats = [0, 0.0, 0.0]
        scheduled = 0
        makespan_v = 0.0

        # The calendar: a heap of distinct timestamps and, per timestamp,
        # its events in push order (a tid for a task-ready event, ~lane
        # for a worker-free one).  Queue keys add the insertion sequence
        # ``qseq`` shifted past the tid field.
        times: List[float] = []
        calendar: Dict[float, List[int]] = {}
        qstep = 1 << n_tasks.bit_length()
        tid_mask = qstep - 1
        qseq = 0
        heappush = heapq.heappush
        heappop = heapq.heappop
        inf = float("inf")

        def fetch(hid: int, dst: int, src: int = -1) -> float:
            """Send ``hid``'s current version to ``dst``, which lacks it;
            returns the arrival time.

            The source is ``src`` when given, else the reference's relay
            choice ``min(locs, key=lambda s: (max(send_free(s), locs[s]),
            s))`` as a flat loop over the holders, with ``send_min``
            standing for ``send_free``.
            """
            locs = valid[hid]
            if src < 0:
                if len(locs) == 1:
                    src = next(iter(locs))
                else:
                    best = inf
                    for s, t in locs.items():
                        k = send_min[s]
                        if t > k:
                            k = t
                        if k < best or (k == best and s < src):
                            best = k
                            src = s
            avail = locs[src]
            nbytes = sizes[hid]
            s_slots = send_slots[src]
            r_slots = recv_slots[dst]
            # First minimum of each NIC's stream lanes.
            s_best = send_min[src]
            r_best = min(r_slots)
            start = avail
            if s_best > start:
                start = s_best
            if r_best > start:
                start = r_best
            dur = latency + nbytes / bw[src][dst]
            locs[dst] = end = start + dur
            s_slots[s_slots.index(s_best)] = end
            send_min[src] = end if stale_min else min(s_slots)
            r_slots[r_slots.index(r_best)] = end
            comm_stats[0] += 1
            comm_stats[1] += nbytes
            comm_stats[2] += dur
            if trace:
                transfer_records.append(
                    TransferRecord(hid, src, dst, start, end, nbytes)
                )
            return end

        # -- initial state ---------------------------------------------------

        # Initial pushes leave the handle's home, as in the reference,
        # not the best holder: after the first push of a handle, a relay
        # from its destination can tie with the home.
        for hid, dst in plan.initial_push:
            if dst not in valid[hid]:
                fetch(hid, dst, homes[hid])

        for tid in range(n_tasks):
            if indeg[tid] == 0:
                dst = node_of[tid]
                ready = 0.0
                for hid in reads_dedup[tid]:
                    t = valid[hid].get(dst)
                    if t is None:
                        t = fetch(hid, dst)
                    if t > ready:
                        ready = t
                bucket = calendar.get(ready)
                if bucket is None:
                    calendar[ready] = [tid]
                    heappush(times, ready)
                else:
                    bucket.append(tid)

        # -- main loop -------------------------------------------------------

        node_type_names = plan.node_type_names
        while times:
            # Apply every state change at this timestamp before
            # dispatching, so simultaneous arrivals compete by priority.
            # A timestamp that dirties one node (the common case)
            # dispatches it without the set and the sort.
            now = heappop(times)
            first = -1
            dirty = None
            for ev in calendar.pop(now):
                if ev >= 0:
                    nd = node_of[ev]
                    if not eligible[ev]:
                        raise RuntimeError(
                            f"task {names[ev]!r} (tid={ev}) has no eligible "
                            f"worker on node {nd} ({node_type_names[nd]})"
                        )
                    heappush(queues[nd][qclass[ev]], queue_keys[ev] + qseq)
                    qseq += qstep
                else:
                    ev = ~ev
                    nd = lane_node[ev]
                    insort(lane_free[ev], ev)
                if nd != first:
                    if first < 0:
                        first = nd
                    elif dirty is None:
                        dirty = {first, nd}
                    else:
                        dirty.add(nd)

            # Greedy assignment on each dirty node (the reference's
            # ``dispatch``); each assignment completes its task on the
            # spot, as the reference's ``complete`` does: writes, eager
            # pushes, successors, then the lane's worker-free event.
            for nd in (first,) if dirty is None else sorted(dirty):
                fc = free_c[nd]
                fg = free_g[nd]
                q0, q1, q2 = queues[nd]
                while fc or fg:
                    best = None
                    if q0 and fc:
                        best = q0
                        key = q0[0]
                    if q1 and fg and (best is None or q1[0] < key):
                        best = q1
                        key = q1[0]
                    if q2 and (best is None or q2[0] < key):
                        tid = heappop(q2) & tid_mask
                        gpu = fg and (not fc or prefer_gpu[tid])
                    elif best is None:
                        break
                    else:
                        tid = heappop(best) & tid_mask
                        gpu = best is q1
                    if gpu:
                        lane = fg.pop(0)
                        end = now + dur_gpu[tid]
                    else:
                        lane = fc.pop(0)
                        end = now + dur_cpu[tid]

                    if end > makespan_v:
                        makespan_v = end
                    for hid in writes_of[tid]:
                        valid[hid] = {nd: end}
                    pa = push_after[tid]
                    if pa:
                        if drop_pending:
                            drop_pending = False  # seeded defect: lose one push
                            pa = pa[:-1]
                        for hid, consumer in pa:
                            if consumer not in valid[hid]:
                                fetch(hid, consumer)
                    for s in succs[tid]:
                        d = indeg[s]
                        if d > 1:
                            indeg[s] = d - 1
                            if tracked[s] and end > pred_finish[s]:
                                pred_finish[s] = end
                            continue
                        # Last predecessor: the reference's
                        # task_ready_time, then the task-ready event.
                        ready = pred_finish[s]
                        if end > ready:
                            ready = end
                        dst = node_of[s]
                        for hid in reads_dedup[s]:
                            t = valid[hid].get(dst)
                            if t is None:
                                t = fetch(hid, dst)
                            if t > ready:
                                ready = t
                        bucket = calendar.get(ready)
                        if bucket is None:
                            calendar[ready] = [s]
                            heappush(times, ready)
                        else:
                            bucket.append(s)
                    bucket = calendar.get(end)
                    if bucket is None:
                        calendar[end] = [~lane]
                        heappush(times, end)
                    else:
                        bucket.append(~lane)

                    scheduled += 1
                    ph = phases_of[tid]
                    span = phase_spans.get(ph)
                    if span is None:
                        phase_spans[ph] = [now, end]
                    else:
                        if now < span[0]:
                            span[0] = now
                        if end > span[1]:
                            span[1] = end
                    if trace:
                        task_records.append(
                            TaskRecord(
                                tid, names[tid], ph, nd,
                                GPU if gpu else CPU, now, end,
                                worker=lane - lane_base[nd],
                            )
                        )

        if scheduled != n_tasks:
            raise ValueError(
                f"task graph has a cycle: only {scheduled}/{n_tasks} "
                f"tasks ran"
            )

        return SimulationResult(
            makespan=makespan_v,
            task_count=n_tasks,
            transfer_count=comm_stats[0],
            comm_bytes=comm_stats[1],
            comm_time=comm_stats[2],
            phase_spans={p: (s[0], s[1]) for p, s in phase_spans.items()},
            task_records=task_records,
            transfer_records=transfer_records,
        )
