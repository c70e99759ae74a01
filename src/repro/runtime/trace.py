"""Execution trace analysis: Figure 1 style per-node utilization timelines.

The paper's Figure 1 (generated with StarVZ) shows, per node, the
aggregated resource utilization over time colored by application phase.
:func:`utilization_timeline` computes the same quantity from simulator
trace records: for time bins, the fraction of a node's workers busy with
tasks of each phase.  :func:`render_ascii` draws it as terminal art.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..platform.cluster import Cluster
from .simulator import SimulationResult

#: Single-character glyphs per phase for ASCII rendering.
PHASE_GLYPHS = {
    "generation": "g",
    "factorization": "F",
    "solve": "s",
    "determinant": "d",
    "dot": ".",
}


@dataclass
class UtilizationTimeline:
    """Binned per-node, per-phase utilization.

    Attributes
    ----------
    bins:
        Bin edges, shape (nbins + 1,).
    phases:
        Phase names, in first-seen order.
    utilization:
        Array of shape (n_nodes, n_phases, nbins): fraction of the node's
        workers busy with that phase during the bin.
    transfers:
        Optional array of shape (n_nodes, 2, nbins): fraction of the
        node's NIC stream capacity busy sending (lane 0) and receiving
        (lane 1) during the bin.  ``None`` when the timeline was built
        without transfer accounting.
    """

    bins: np.ndarray
    phases: List[str]
    utilization: np.ndarray
    transfers: Optional[np.ndarray] = None

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the timeline."""
        return self.utilization.shape[0]

    def node_busy(self, node: int) -> np.ndarray:
        """Total busy fraction per bin for one node (all phases)."""
        return self.utilization[node].sum(axis=0)

    def node_comm(self, node: int) -> np.ndarray:
        """Total NIC busy fraction per bin for one node (send + recv,
        normalized by the combined two-way stream capacity)."""
        if self.transfers is None:
            raise ValueError("timeline was built without transfer accounting")
        return self.transfers[node].sum(axis=0) / 2.0


def utilization_timeline(
    result: SimulationResult,
    cluster: Cluster,
    nbins: int = 80,
    include_transfers: bool = True,
) -> UtilizationTimeline:
    """Compute a Figure 1 style utilization timeline from a traced run.

    With ``include_transfers`` (the default), the result also carries a
    per-node NIC occupancy lane built from the run's
    :class:`~repro.runtime.simulator.TransferRecord` stream: each
    transfer occupies one of the ``network.streams`` send slots at its
    source and one receive slot at its destination for its whole span,
    exactly as the simulator scheduled it, so the lane values are true
    fractions in [0, 1] of the NIC's directional capacity.
    """
    if not result.task_records:
        raise ValueError(
            "simulation has no task records; run the Simulator with trace=True"
        )
    if nbins < 1:
        raise ValueError("nbins must be >= 1")

    horizon = max(result.makespan, 1e-12)
    edges = np.linspace(0.0, horizon, nbins + 1)
    width = edges[1] - edges[0]

    phases: List[str] = []
    index: Dict[str, int] = {}
    for rec in result.task_records:
        if rec.phase not in index:
            index[rec.phase] = len(phases)
            phases.append(rec.phase)

    n_nodes = len(cluster)
    workers_per_node = np.array(
        [nt.node_type.gpus + nt.node_type.cpu_slots for nt in cluster], dtype=float
    )
    busy = np.zeros((n_nodes, len(phases), nbins))

    for rec in result.task_records:
        _accumulate(busy[rec.node][index[rec.phase]], rec.start, rec.end,
                    edges, width)

    busy /= workers_per_node[:, None, None] * width

    transfers: Optional[np.ndarray] = None
    if include_transfers:
        transfers = np.zeros((n_nodes, 2, nbins))
        for rec in result.transfer_records:
            _accumulate(transfers[rec.src][0], rec.start, rec.end, edges, width)
            _accumulate(transfers[rec.dst][1], rec.start, rec.end, edges, width)
        transfers /= cluster.network.streams * width

    return UtilizationTimeline(
        bins=edges, phases=phases, utilization=busy, transfers=transfers
    )


def _accumulate(
    row: np.ndarray, start: float, end: float, edges: np.ndarray, width: float
) -> None:
    """Add one interval's busy time into the per-bin accumulator ``row``."""
    nbins = len(row)
    first = min(int(start / width), nbins - 1)
    last = min(int(end / width), nbins - 1)
    if first == last:
        row[first] += end - start
        return
    row[first] += edges[first + 1] - start
    row[last] += end - edges[last]
    if last - first > 1:
        row[first + 1 : last] += width


def render_ascii(
    timeline: UtilizationTimeline,
    cluster: Cluster,
    max_nodes: int = 16,
    show_transfers: bool = False,
) -> str:
    """Render the timeline as ASCII art (one row per node).

    Each column is one time bin; the glyph is the dominant phase in that
    bin (uppercase when the node is > 50 % busy, lowercase otherwise, space
    when idle).  With ``show_transfers`` (and a timeline carrying transfer
    lanes) each node gets an extra ``~comm`` row showing NIC occupancy
    (``=`` above 50 % of stream capacity, ``-`` below, space when idle).
    """
    lines = []
    horizon = timeline.bins[-1]
    lines.append(f"time: 0 .. {horizon:.2f}s, {len(timeline.bins) - 1} bins")
    comm = show_transfers and timeline.transfers is not None
    for node in range(min(timeline.n_nodes, max_nodes)):
        util = timeline.utilization[node]          # (phases, bins)
        total = util.sum(axis=0)
        dominant = util.argmax(axis=0)
        chars = []
        for b in range(util.shape[1]):
            if total[b] < 0.02:
                chars.append(" ")
                continue
            glyph = PHASE_GLYPHS.get(timeline.phases[dominant[b]], "?")
            chars.append(glyph.upper() if total[b] > 0.5 else glyph.lower())
        label = cluster[node].hostname[:14]
        lines.append(f"{label:>14} |{''.join(chars)}|")
        if comm:
            nic = timeline.node_comm(node)
            row = "".join(
                " " if f < 0.02 else ("=" if f > 0.5 else "-") for f in nic
            )
            lines.append(f"{'~comm':>14} |{row}|")
    if timeline.n_nodes > max_nodes:
        lines.append(f"... ({timeline.n_nodes - max_nodes} more nodes)")
    legend = "  ".join(f"{g}={p}" for p, g in PHASE_GLYPHS.items())
    lines.append(f"legend: {legend} (uppercase: >50% busy)")
    if comm:
        lines.append("comm rows: NIC occupancy (=: >50% of stream capacity)")
    return "\n".join(lines)
