"""Simulation timeline observability: the trace export + schedule analytics.

The paper's Figure 1 (a StarVZ per-node Gantt) is the instrument behind
its whole diagnosis of the factorization-nodes trade-off: idleness of the
slow nodes, phase overlap, and the communication lanes are what make the
"fewer nodes can be faster" effect visible.  This module turns the
simulator's :class:`~repro.runtime.simulator.TaskRecord` /
:class:`~repro.runtime.simulator.TransferRecord` streams into the same
view, with zero new dependencies:

* :func:`analyze` -- per-node **idleness**, per-phase spans and pairwise
  **overlap**, and the DAG **critical path** (longest dependency chain,
  total and per-phase);
* :func:`chrome_trace` -- a ``chrome://tracing`` / Perfetto-loadable
  JSON object (one process per node, one thread per worker lane, NIC
  send/recv lanes), the one timeline artifact.

Because the simulator is deterministic in simulated time, the export
is a pure function of (code, scenario, plan): :func:`encode_json` uses
canonical key order and the traversal orders below are all explicitly
sorted, so two runs -- on any machine -- produce byte-identical
artifacts (asserted by ``tests/test_cli_timeline``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..runtime.dag import TaskGraph
from ..runtime.simulator import SimulationResult
from .sink import write_atomic

#: Bump when the exported artifact layout changes incompatibly.
TIMELINE_SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# Analytics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseTimeline:
    """Aggregates of one application phase across the run."""

    phase: str
    start: float
    end: float
    tasks: int
    critical_path_s: float

    @property
    def span_s(self) -> float:
        """Elapsed span (first start to last end)."""
        return self.end - self.start


@dataclass
class TimelineAnalysis:
    """Everything the timeline report derives from one traced run."""

    makespan: float
    task_count: int
    transfer_count: int
    comm_bytes: float
    comm_time: float
    phases: List[PhaseTimeline]
    node_idleness: List[float]
    overlap_s: Dict[str, float]
    critical_path_s: float

    @property
    def mean_idleness(self) -> float:
        """Mean per-node idleness over the whole run."""
        if not self.node_idleness:
            return 0.0
        return sum(self.node_idleness) / len(self.node_idleness)

    @property
    def max_idleness(self) -> float:
        """Worst per-node idleness."""
        return max(self.node_idleness) if self.node_idleness else 0.0

    @property
    def critical_path_frac(self) -> float:
        """Critical path length as a fraction of the makespan."""
        if self.makespan <= 0.0:
            return 0.0
        return self.critical_path_s / self.makespan


def critical_path(
    result: SimulationResult,
    graph: TaskGraph,
    phase: Optional[str] = None,
) -> Tuple[float, List[int]]:
    """Longest dependency chain through the executed task graph.

    Node weights are the *realized* task durations from the trace
    records; with ``phase`` given, only tasks of that phase contribute
    weight (the chain may still traverse other phases' tasks), yielding
    the largest amount of ``phase`` work any single chain serializes.
    Returns ``(length_seconds, task_ids_on_the_path)``; the length is a
    lower bound on the makespan of any schedule, so
    ``length <= result.makespan`` always holds.
    """
    if not result.task_records:
        raise ValueError(
            "simulation has no task records; run the Simulator with trace=True"
        )
    dur = {rec.tid: rec.end - rec.start for rec in result.task_records}
    phase_of = {t.tid: t.phase for t in graph.tasks}
    preds = graph.predecessors()
    order = graph.topological_order()
    dist: Dict[int, float] = {}
    back: Dict[int, int] = {}
    for tid in order:
        best, best_pred = 0.0, -1
        for p in preds[tid]:
            if dist[p] > best or (dist[p] == best and best_pred == -1):
                best, best_pred = dist[p], p
        weight = dur.get(tid, 0.0)
        if phase is not None and phase_of.get(tid) != phase:
            weight = 0.0
        dist[tid] = best + weight
        back[tid] = best_pred
    if not dist:
        return 0.0, []
    end_tid = min((t for t in dist), key=lambda t: (-dist[t], t))
    path: List[int] = []
    tid = end_tid
    while tid != -1:
        path.append(tid)
        tid = back[tid]
    path.reverse()
    if phase is not None:
        path = [t for t in path if phase_of.get(t) == phase]
    return dist[end_tid], path


def analyze(
    result: SimulationResult,
    cluster,
    graph: Optional[TaskGraph] = None,
) -> TimelineAnalysis:
    """Compute the full timeline analytics of one traced run.

    ``graph`` (the submitted :class:`TaskGraph`) enables the critical
    path; without it the critical-path fields are zero.
    """
    if not result.task_records:
        raise ValueError(
            "simulation has no task records; run the Simulator with trace=True"
        )
    horizon = max(result.makespan, 1e-12)

    # Tasks per phase (first-seen order) and busy seconds per worker lane.
    count_by_phase: Dict[str, int] = {}
    lane_busy: Dict[Tuple[int, int], float] = {}
    for rec in result.task_records:
        count_by_phase[rec.phase] = count_by_phase.get(rec.phase, 0) + 1
        key = (rec.node, rec.worker)
        lane_busy[key] = lane_busy.get(key, 0.0) + (rec.end - rec.start)
    phase_order = list(count_by_phase)

    # Node idleness: lane busy times summed in worker order.
    node_idleness: List[float] = []
    for node in range(len(cluster)):
        nt = cluster[node].node_type
        workers = nt.gpus + nt.cpu_slots
        node_busy = 0.0
        for w in range(workers):
            node_busy += lane_busy.get((node, w), 0.0)
        capacity = workers * horizon
        node_idleness.append(
            min(max(1.0 - node_busy / capacity, 0.0), 1.0) if capacity else 1.0
        )

    # Pairwise phase-span overlap (seconds).
    overlap: Dict[str, float] = {}
    for i, p in enumerate(phase_order):
        for q in phase_order[i + 1:]:
            (ps, pe) = result.phase_spans[p]
            (qs, qe) = result.phase_spans[q]
            overlap[f"{p}+{q}"] = max(0.0, min(pe, qe) - max(ps, qs))

    cp_total = 0.0
    cp_by_phase: Dict[str, float] = {p: 0.0 for p in phase_order}
    if graph is not None:
        cp_total = critical_path(result, graph)[0]
        for p in phase_order:
            cp_by_phase[p] = critical_path(result, graph, phase=p)[0]

    phases = [
        PhaseTimeline(
            phase=p,
            start=result.phase_spans[p][0],
            end=result.phase_spans[p][1],
            tasks=count_by_phase[p],
            critical_path_s=cp_by_phase[p],
        )
        for p in phase_order
    ]

    return TimelineAnalysis(
        makespan=result.makespan,
        task_count=result.task_count,
        transfer_count=result.transfer_count,
        comm_bytes=result.comm_bytes,
        comm_time=result.comm_time,
        phases=phases,
        node_idleness=node_idleness,
        overlap_s=overlap,
        critical_path_s=cp_total,
    )


#: Report unit of each :func:`flat_metrics` family (see
#: :func:`repro.obs.sink.metric_unit`).
METRIC_UNITS = {
    "makespan_s": "sim_s",
    "critical_path_s": "sim_s",
    "critical_path_frac": "ratio",
    "mean_idleness": "ratio",
    "max_idleness": "ratio",
    "comm_time_s": "sim_s",
    "comm_bytes": "bytes",
    "task_count": "count",
    "transfer_count": "count",
    "phase_makespan_s": "sim_s",
    "phase_critical_path_s": "sim_s",
    "overlap_s": "sim_s",
}


def flat_metrics(analysis: TimelineAnalysis) -> Dict[str, float]:
    """Flatten an analysis into the scalar metric dict that
    ``BENCH_timeline.json`` reports (keys stable, values plain floats)."""
    metrics: Dict[str, float] = {
        "makespan_s": analysis.makespan,
        "critical_path_s": analysis.critical_path_s,
        "critical_path_frac": analysis.critical_path_frac,
        "mean_idleness": analysis.mean_idleness,
        "max_idleness": analysis.max_idleness,
        "comm_time_s": analysis.comm_time,
        "comm_bytes": analysis.comm_bytes,
        "task_count": float(analysis.task_count),
        "transfer_count": float(analysis.transfer_count),
    }
    for p in analysis.phases:
        metrics[f"phase_makespan_s.{p.phase}"] = p.span_s
        metrics[f"phase_critical_path_s.{p.phase}"] = p.critical_path_s
    for pair, seconds in sorted(analysis.overlap_s.items()):
        metrics[f"overlap_s.{pair}"] = seconds
    return metrics


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------


def encode_json(obj) -> str:
    """Canonical JSON rendering (sorted keys, compact separators).

    Byte-stable: the rendering depends only on content, so deterministic
    content yields deterministic bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def chrome_trace(
    result: SimulationResult,
    cluster,
    analysis: Optional[TimelineAnalysis] = None,
) -> dict:
    """Build a Chrome-trace (``chrome://tracing`` / Perfetto) object.

    One *process* per node; *threads* are the node's worker lanes (GPUs
    first) plus two NIC lanes (send, recv).  Timestamps are simulated
    microseconds.
    """
    if not result.task_records:
        raise ValueError(
            "simulation has no task records; run the Simulator with trace=True"
        )
    events: List[dict] = []
    for node in range(len(cluster)):
        nt = cluster[node].node_type
        workers = nt.gpus + nt.cpu_slots
        events.append({
            "ph": "M", "name": "process_name", "pid": node, "tid": 0,
            "args": {"name": f"node{node} {cluster[node].hostname}"},
        })
        events.append({
            "ph": "M", "name": "process_sort_index", "pid": node, "tid": 0,
            "args": {"sort_index": node},
        })
        for w in range(workers):
            kind = "gpu" if w < nt.gpus else "cpu"
            events.append({
                "ph": "M", "name": "thread_name", "pid": node, "tid": w,
                "args": {"name": f"{kind}{w if kind == 'gpu' else w - nt.gpus}"},
            })
        events.append({
            "ph": "M", "name": "thread_name", "pid": node, "tid": workers,
            "args": {"name": "nic-send"},
        })
        events.append({
            "ph": "M", "name": "thread_name", "pid": node, "tid": workers + 1,
            "args": {"name": "nic-recv"},
        })

    for rec in sorted(result.task_records,
                      key=lambda r: (r.start, r.node, r.tid)):
        events.append({
            "ph": "X", "name": rec.name, "cat": rec.phase,
            "pid": rec.node, "tid": rec.worker,
            "ts": rec.start * 1e6, "dur": (rec.end - rec.start) * 1e6,
            "args": {"tid": rec.tid, "worker_kind": rec.worker_kind},
        })

    for rec in sorted(result.transfer_records,
                      key=lambda r: (r.start, r.src, r.dst, r.hid)):
        ts, dur = rec.start * 1e6, (rec.end - rec.start) * 1e6
        for pid, lane, peer in ((rec.src, 0, rec.dst), (rec.dst, 1, rec.src)):
            workers = (cluster[pid].node_type.gpus
                       + cluster[pid].node_type.cpu_slots)
            events.append({
                "ph": "X", "name": f"h{rec.hid}", "cat": "transfer",
                "pid": pid, "tid": workers + lane, "ts": ts, "dur": dur,
                "args": {"bytes": rec.nbytes, "peer": peer},
            })

    other = {
        "schema": TIMELINE_SCHEMA_VERSION,
        "makespan_s": result.makespan,
        "task_count": result.task_count,
        "transfer_count": result.transfer_count,
    }
    if analysis is not None:
        other["critical_path_s"] = analysis.critical_path_s
        other["mean_idleness"] = analysis.mean_idleness
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


# ---------------------------------------------------------------------------
# Scenario-level driver (used by `repro timeline`)
# ---------------------------------------------------------------------------


def export_timeline(
    scenario_key: str,
    out_dir: Union[str, Path],
    n_fact: Optional[int] = None,
    n_gen: Optional[int] = None,
) -> dict:
    """Run one traced iteration and write its Chrome trace.

    Writes ``TIMELINE_<scenario_key>.trace.json`` under ``out_dir``;
    returns a summary dict (path, analysis, metrics and ``config``, the
    experiment fingerprint: scenario, workload, tile count, plan, node
    count).
    """
    from .. import config as repro_config
    from ..geostat.phases import IterationPlan, build_iteration_graph
    from ..platform import get_scenario
    from ..runtime.simfast import FastSimulator
    from ..workload import Workload

    scenario = get_scenario(scenario_key)
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    if n_fact is None:
        n_fact = len(cluster)
    if n_gen is None:
        n_gen = len(cluster)
    if not (1 <= n_fact <= len(cluster)) or not (1 <= n_gen <= len(cluster)):
        raise ValueError(
            f"node counts must be in [1, {len(cluster)}]; "
            f"got n_fact={n_fact}, n_gen={n_gen}"
        )
    plan = IterationPlan(n_fact=n_fact, n_gen=n_gen)
    graph = build_iteration_graph(cluster, workload, plan)
    result = FastSimulator(cluster, trace=True).run(graph)
    cfg = {
        "scenario": scenario_key,
        "workload": scenario.workload,
        "tiles": repro_config.tiles_for(scenario.workload),
        "n_fact": n_fact,
        "n_gen": n_gen,
        "nodes": len(cluster),
    }
    analysis = analyze(result, cluster, graph)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"TIMELINE_{scenario_key}.trace.json"
    write_atomic(path,
                 encode_json(chrome_trace(result, cluster, analysis)) + "\n")
    return {
        "schema": TIMELINE_SCHEMA_VERSION,
        "config": cfg,
        "metrics": flat_metrics(analysis),
        "path": str(path),
        "analysis": analysis,
        "result": result,
        "cluster": cluster,
    }
