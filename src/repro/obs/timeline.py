"""Simulation timeline observability: trace exports + schedule analytics.

The paper's Figure 1 (a StarVZ per-node Gantt) is the instrument behind
its whole diagnosis of the factorization-nodes trade-off: idleness of the
slow nodes, phase overlap, and the communication lanes are what make the
"fewer nodes can be faster" effect visible.  This module turns the
simulator's :class:`~repro.runtime.simulator.TaskRecord` /
:class:`~repro.runtime.simulator.TransferRecord` streams into the same
class of artifacts, with zero new dependencies:

* :func:`analyze` -- per-node / per-worker **idleness**, per-phase
  busy time and pairwise **overlap**, NIC **transfer utilization**, and
  the DAG **critical path** (longest dependency chain, total and
  per-phase);
* :func:`chrome_trace` -- a ``chrome://tracing`` / Perfetto-loadable
  JSON object (one process per node, one thread per worker lane, NIC
  send/recv lanes);
* :func:`paje_csv` -- a Paje-style CSV of state and link records, the
  ``paje.csv`` shape StarVZ-like tooling consumes;
* :func:`render_html` -- a fully self-contained HTML report (inline SVG
  Gantt + summary tables, no scripts, no network requests).

Because the simulator is deterministic in simulated time, every export
is a pure function of (code, scenario, plan): :func:`encode_json` uses
canonical key order and the traversal orders below are all explicitly
sorted, so two runs -- on any machine -- produce byte-identical
artifacts (asserted by ``tests/test_cli_timeline``).
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..runtime.dag import TaskGraph
from ..runtime.simulator import SimulationResult
from .sink import write_atomic

#: Bump when the exported artifact layout changes incompatibly.
TIMELINE_SCHEMA_VERSION = 1

#: Stable phase palette (hex fill colors for SVG/HTML); phases outside
#: this map get :data:`_FALLBACK_COLORS` entries by first-seen index.
PHASE_COLORS = {
    "generation": "#59a14f",
    "factorization": "#4e79a7",
    "solve": "#f28e2b",
    "determinant": "#b07aa1",
    "dot": "#e15759",
}

_FALLBACK_COLORS = ("#76b7b2", "#edc948", "#ff9da7", "#9c755f", "#bab0ac")

#: Color of NIC lanes in the Gantt.
_COMM_COLOR = "#8a8a8a"


def phase_color(phase: str, phases: Sequence[str]) -> str:
    """Fill color for ``phase`` (stable across exports of one run)."""
    if phase in PHASE_COLORS:
        return PHASE_COLORS[phase]
    known = [p for p in phases if p not in PHASE_COLORS]
    idx = known.index(phase) if phase in known else 0
    return _FALLBACK_COLORS[idx % len(_FALLBACK_COLORS)]


# ---------------------------------------------------------------------------
# Analytics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaneStats:
    """Busy/idle accounting of one worker lane (one node, one worker)."""

    node: int
    worker: int
    kind: str
    busy_s: float
    idle_frac: float


@dataclass(frozen=True)
class PhaseTimeline:
    """Aggregates of one application phase across the run."""

    phase: str
    start: float
    end: float
    tasks: int
    busy_s: float
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
    lanes: List[LaneStats]
    node_idleness: List[float]
    node_send_util: List[float]
    node_recv_util: List[float]
    overlap_s: Dict[str, float]
    critical_path_s: float
    critical_path_tasks: List[int] = field(default_factory=list)

    @property
    def phase_names(self) -> List[str]:
        """Phase names in first-seen order."""
        return [p.phase for p in self.phases]

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
    path; without it the critical-path fields are zero/empty.
    """
    if not result.task_records:
        raise ValueError(
            "simulation has no task records; run the Simulator with trace=True"
        )
    horizon = max(result.makespan, 1e-12)
    n_nodes = len(cluster)

    # Phase aggregates in first-seen order.
    phase_order: List[str] = []
    busy_by_phase: Dict[str, float] = {}
    count_by_phase: Dict[str, int] = {}
    for rec in result.task_records:
        if rec.phase not in busy_by_phase:
            phase_order.append(rec.phase)
            busy_by_phase[rec.phase] = 0.0
            count_by_phase[rec.phase] = 0
        busy_by_phase[rec.phase] += rec.end - rec.start
        count_by_phase[rec.phase] += 1

    # Per-lane busy time.
    lane_busy: Dict[Tuple[int, int], float] = {}
    for rec in result.task_records:
        key = (rec.node, rec.worker)
        lane_busy[key] = lane_busy.get(key, 0.0) + (rec.end - rec.start)

    lanes: List[LaneStats] = []
    node_idleness: List[float] = []
    for node in range(n_nodes):
        nt = cluster[node].node_type
        workers = nt.gpus + nt.cpu_slots
        node_busy = 0.0
        for w in range(workers):
            kind = "gpu" if w < nt.gpus else "cpu"
            busy = lane_busy.get((node, w), 0.0)
            node_busy += busy
            lanes.append(
                LaneStats(
                    node=node, worker=w, kind=kind, busy_s=busy,
                    idle_frac=min(max(1.0 - busy / horizon, 0.0), 1.0),
                )
            )
        capacity = workers * horizon
        node_idleness.append(
            min(max(1.0 - node_busy / capacity, 0.0), 1.0) if capacity else 1.0
        )

    # NIC utilization per node and direction.
    streams = cluster.network.streams
    send_busy = [0.0] * n_nodes
    recv_busy = [0.0] * n_nodes
    for rec in result.transfer_records:
        dur = rec.end - rec.start
        send_busy[rec.src] += dur
        recv_busy[rec.dst] += dur
    cap = streams * horizon
    node_send_util = [min(b / cap, 1.0) for b in send_busy]
    node_recv_util = [min(b / cap, 1.0) for b in recv_busy]

    # Pairwise phase-span overlap (seconds).
    overlap: Dict[str, float] = {}
    for i, p in enumerate(phase_order):
        for q in phase_order[i + 1:]:
            (ps, pe) = result.phase_spans[p]
            (qs, qe) = result.phase_spans[q]
            overlap[f"{p}+{q}"] = max(0.0, min(pe, qe) - max(ps, qs))

    cp_total, cp_path = 0.0, []
    cp_by_phase: Dict[str, float] = {p: 0.0 for p in phase_order}
    if graph is not None:
        cp_total, cp_path = critical_path(result, graph)
        for p in phase_order:
            cp_by_phase[p] = critical_path(result, graph, phase=p)[0]

    phases = [
        PhaseTimeline(
            phase=p,
            start=result.phase_spans[p][0],
            end=result.phase_spans[p][1],
            tasks=count_by_phase[p],
            busy_s=busy_by_phase[p],
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
        lanes=lanes,
        node_idleness=node_idleness,
        node_send_util=node_send_util,
        node_recv_util=node_recv_util,
        overlap_s=overlap,
        critical_path_s=cp_total,
        critical_path_tasks=cp_path,
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
# Paje-style CSV export
# ---------------------------------------------------------------------------

#: Column header of the Paje-style CSV (StarVZ ``paje.csv`` shape).
PAJE_HEADER = "Nature,ResourceId,Type,Start,End,Duration,Value,Detail"


def paje_csv(result: SimulationResult, cluster) -> str:
    """Paje-style CSV: ``State`` rows per task, ``Link`` rows per transfer.

    Times are simulated seconds with 9 fractional digits (format-stable
    across platforms).
    """
    if not result.task_records:
        raise ValueError(
            "simulation has no task records; run the Simulator with trace=True"
        )
    lines = [PAJE_HEADER]
    for rec in sorted(result.task_records,
                      key=lambda r: (r.start, r.node, r.tid)):
        host = cluster[rec.node].hostname
        lines.append(
            f"State,{host}_w{rec.worker},Worker State,"
            f"{rec.start:.9f},{rec.end:.9f},{rec.end - rec.start:.9f},"
            f"{rec.phase}:{rec.name},tid={rec.tid}"
        )
    for rec in sorted(result.transfer_records,
                      key=lambda r: (r.start, r.src, r.dst, r.hid)):
        lines.append(
            f"Link,{cluster[rec.src].hostname},{cluster[rec.dst].hostname},"
            f"{rec.start:.9f},{rec.end:.9f},{rec.end - rec.start:.9f},"
            f"h{rec.hid},bytes={rec.nbytes:.0f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Self-contained HTML report (inline SVG Gantt)
# ---------------------------------------------------------------------------

_CSS = """
body { font-family: sans-serif; margin: 1.5em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.4em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: right; }
th { background: #f2f2f2; } td.l, th.l { text-align: left; }
.legend span { display: inline-block; margin-right: 1.2em; }
.swatch { display: inline-block; width: 0.9em; height: 0.9em;
          margin-right: 0.3em; vertical-align: -0.1em; }
svg { background: #fafafa; border: 1px solid #ddd; }
"""


def _svg_gantt(
    result: SimulationResult,
    cluster,
    max_nodes: int = 16,
    width: int = 1100,
) -> str:
    """Inline SVG Gantt: one row per worker lane, NIC lane per node."""
    horizon = max(result.makespan, 1e-12)
    phases: List[str] = []
    for rec in result.task_records:
        if rec.phase not in phases:
            phases.append(rec.phase)
    scale = (width - 120) / horizon
    row_h, node_gap = 8, 6
    n_nodes = min(len(cluster), max_nodes)

    # Row layout: per node, worker lanes then one NIC lane.
    y = 18
    lane_y: Dict[Tuple[int, int], int] = {}
    nic_y: Dict[int, int] = {}
    labels: List[str] = []
    for node in range(n_nodes):
        nt = cluster[node].node_type
        workers = nt.gpus + nt.cpu_slots
        labels.append(
            f'<text x="4" y="{y + row_h}" font-size="9">'
            f"{html.escape(cluster[node].hostname)}</text>"
        )
        for w in range(workers):
            lane_y[(node, w)] = y
            y += row_h
        nic_y[node] = y
        y += row_h + node_gap
    height = y + 24

    rects: List[str] = []
    for rec in sorted(result.task_records,
                      key=lambda r: (r.start, r.node, r.tid)):
        if rec.node >= n_nodes:
            continue
        x = 120 + rec.start * scale
        w = max((rec.end - rec.start) * scale, 0.3)
        ry = lane_y[(rec.node, rec.worker)]
        color = phase_color(rec.phase, phases)
        rects.append(
            f'<rect x="{x:.2f}" y="{ry}" width="{w:.2f}" height="{row_h - 1}"'
            f' fill="{color}"><title>{html.escape(rec.name)} tid={rec.tid} '
            f"{rec.phase} [{rec.start:.4f}, {rec.end:.4f}]s"
            f"</title></rect>"
        )
    for rec in sorted(result.transfer_records,
                      key=lambda r: (r.start, r.src, r.dst, r.hid)):
        x = 120 + rec.start * scale
        w = max((rec.end - rec.start) * scale, 0.3)
        for node, half in ((rec.src, 0), (rec.dst, 1)):
            if node >= n_nodes:
                continue
            ry = nic_y[node] + half * (row_h // 2)
            rects.append(
                f'<rect x="{x:.2f}" y="{ry}" width="{w:.2f}"'
                f' height="{row_h // 2 - 1}" fill="{_COMM_COLOR}">'
                f"<title>h{rec.hid} {rec.src}-&gt;{rec.dst} "
                f"{rec.nbytes:.0f} B [{rec.start:.4f}, {rec.end:.4f}]s"
                f"</title></rect>"
            )

    # Time axis: 10 ticks.
    axis: List[str] = []
    for i in range(11):
        t = horizon * i / 10.0
        x = 120 + t * scale
        axis.append(
            f'<line x1="{x:.2f}" y1="14" x2="{x:.2f}" y2="{height - 20}"'
            f' stroke="#ddd" stroke-width="1"/>'
        )
        axis.append(
            f'<text x="{x:.2f}" y="{height - 8}" font-size="9"'
            f' text-anchor="middle">{t:.2f}s</text>'
        )

    return (
        f'<svg width="{width}" height="{height}"'
        f' role="img" aria-label="per-worker Gantt timeline">'
        + "".join(axis) + "".join(labels) + "".join(rects)
        + "</svg>"
    )


def render_html(
    analysis: TimelineAnalysis,
    result: SimulationResult,
    cluster,
    title: str = "simulation timeline",
    max_nodes: int = 16,
) -> str:
    """Self-contained HTML report: SVG Gantt + summary tables.

    No scripts, no external resources -- the file renders offline and its
    bytes are a pure function of the simulated run.
    """
    phases = analysis.phase_names
    legend = "".join(
        f'<span><span class="swatch" style="background:'
        f'{phase_color(p, phases)}"></span>{html.escape(p)}</span>'
        for p in phases
    ) + (f'<span><span class="swatch" style="background:{_COMM_COLOR}">'
         "</span>nic send/recv</span>")

    summary_rows = [
        ("makespan [s]", f"{analysis.makespan:.6f}"),
        ("tasks", f"{analysis.task_count}"),
        ("transfers", f"{analysis.transfer_count}"),
        ("communicated bytes", f"{analysis.comm_bytes:.0f}"),
        ("communication time [s]", f"{analysis.comm_time:.6f}"),
        ("critical path [s]", f"{analysis.critical_path_s:.6f}"),
        ("critical path / makespan", f"{analysis.critical_path_frac:.4f}"),
        ("mean node idleness", f"{analysis.mean_idleness:.4f}"),
        ("max node idleness", f"{analysis.max_idleness:.4f}"),
    ]
    summary = "".join(
        f'<tr><td class="l">{html.escape(k)}</td><td>{v}</td></tr>'
        for k, v in summary_rows
    )

    phase_rows = "".join(
        f'<tr><td class="l">{html.escape(p.phase)}</td>'
        f"<td>{p.start:.4f}</td><td>{p.end:.4f}</td><td>{p.span_s:.4f}</td>"
        f"<td>{p.tasks}</td><td>{p.busy_s:.4f}</td>"
        f"<td>{p.critical_path_s:.4f}</td></tr>"
        for p in analysis.phases
    )

    overlap_rows = "".join(
        f'<tr><td class="l">{html.escape(pair)}</td><td>{sec:.4f}</td></tr>'
        for pair, sec in sorted(analysis.overlap_s.items())
    )

    node_rows = []
    for node in range(len(cluster)):
        nt = cluster[node].node_type
        node_rows.append(
            f'<tr><td class="l">{html.escape(cluster[node].hostname)}</td>'
            f"<td>{nt.gpus + nt.cpu_slots}</td>"
            f"<td>{analysis.node_idleness[node]:.4f}</td>"
            f"<td>{analysis.node_send_util[node]:.4f}</td>"
            f"<td>{analysis.node_recv_util[node]:.4f}</td></tr>"
        )

    gantt = _svg_gantt(result, cluster, max_nodes=max_nodes)
    truncated = (
        f"<p>(first {max_nodes} of {len(cluster)} nodes shown)</p>"
        if len(cluster) > max_nodes else ""
    )
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{html.escape(title)}</title>
<style>{_CSS}</style></head><body>
<h1>{html.escape(title)}</h1>
<p>schema v{TIMELINE_SCHEMA_VERSION}; simulated time; deterministic export.</p>
<h2>Summary</h2>
<table>{summary}</table>
<h2>Timeline</h2>
<p class="legend">{legend}</p>
{gantt}
{truncated}
<h2>Phases</h2>
<table><tr><th class="l">phase</th><th>start [s]</th><th>end [s]</th>
<th>span [s]</th><th>tasks</th><th>busy [s]</th><th>critical path [s]</th></tr>
{phase_rows}</table>
<h2>Phase overlap (span intersection)</h2>
<table><tr><th class="l">pair</th><th>overlap [s]</th></tr>
{overlap_rows}</table>
<h2>Nodes</h2>
<table><tr><th class="l">node</th><th>workers</th><th>idleness</th>
<th>NIC send util</th><th>NIC recv util</th></tr>
{''.join(node_rows)}</table>
</body></html>
"""


# ---------------------------------------------------------------------------
# Scenario-level driver (used by `repro timeline`)
# ---------------------------------------------------------------------------


def export_timeline(
    scenario_key: str,
    out_dir: Union[str, Path],
    n_fact: Optional[int] = None,
    n_gen: Optional[int] = None,
    stem: Optional[str] = None,
    max_nodes: int = 16,
) -> dict:
    """Run one traced iteration and write all three artifacts.

    Writes ``<stem>.trace.json`` (Chrome trace), ``<stem>.csv``
    (Paje-style) and ``<stem>.html`` (self-contained report) under
    ``out_dir``; returns a summary dict (paths, analysis, metrics and
    ``config``, the experiment fingerprint: scenario, workload, tile
    count, plan, node count).
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
    stem = stem or f"TIMELINE_{scenario_key}"
    chrome_path = out / f"{stem}.trace.json"
    csv_path = out / f"{stem}.csv"
    html_path = out / f"{stem}.html"
    write_atomic(chrome_path,
                 encode_json(chrome_trace(result, cluster, analysis)) + "\n")
    write_atomic(csv_path, paje_csv(result, cluster))
    title = f"timeline {scenario_key}: n_gen={cfg['n_gen']}, n_fact={cfg['n_fact']}"
    write_atomic(html_path, render_html(analysis, result, cluster,
                                        title=title, max_nodes=max_nodes))
    return {
        "schema": TIMELINE_SCHEMA_VERSION,
        "config": cfg,
        "metrics": flat_metrics(analysis),
        "paths": {
            "chrome": str(chrome_path),
            "csv": str(csv_path),
            "html": str(html_path),
        },
        "analysis": analysis,
        "result": result,
        "cluster": cluster,
    }
