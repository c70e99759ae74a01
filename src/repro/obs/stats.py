"""Trace aggregation: turn a JSONL trace into per-phase/per-strategy tables.

Backs the ``repro stats`` subcommand.  The aggregation is intentionally
tolerant -- unknown record kinds are skipped, missing fields default --
so traces from older/newer schema revisions still render what they can.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .sink import read_trace


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (deterministic, no interpolation).

    ``q`` in [0, 1]; an empty sequence yields 0.0 so summaries of empty
    windows stay plain scalars.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if not values:
        return 0.0
    ordered = sorted(float(v) for v in values)
    rank = max(int(math.ceil(q * len(ordered))) - 1, 0)
    return ordered[rank]


@dataclass
class PhaseStats:
    """Aggregate of one simulated phase across ``simulator.run`` events."""

    phase: str
    sims: int = 0
    total_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.sims if self.sims else 0.0


@dataclass
class StrategyStats:
    """Aggregate of one strategy's decision-log records.

    Beyond the count/total aggregates of schema 1, keeps the raw
    per-decision overheads and the GP telemetry the decision log has
    carried since PR 3 (acquisition value and posterior sd at the chosen
    arm) so ``repro stats`` can report overhead tails and model-state
    summaries instead of dropping them.
    """

    strategy: str
    decisions: int = 0
    arms: set = field(default_factory=set)
    total_overhead: float = 0.0
    total_duration: float = 0.0
    cells: int = 0
    cell_total: float = 0.0
    overheads: List[float] = field(default_factory=list)
    acquisitions: List[float] = field(default_factory=list)
    posterior_sds: List[float] = field(default_factory=list)

    @property
    def mean_overhead(self) -> float:
        return self.total_overhead / self.decisions if self.decisions else 0.0

    @property
    def overhead_p95(self) -> float:
        return quantile(self.overheads, 0.95)

    @property
    def overhead_p99(self) -> float:
        return quantile(self.overheads, 0.99)

    @property
    def mean_acquisition(self) -> float:
        return (sum(self.acquisitions) / len(self.acquisitions)
                if self.acquisitions else 0.0)

    @property
    def mean_posterior_sd(self) -> float:
        return (sum(self.posterior_sds) / len(self.posterior_sds)
                if self.posterior_sds else 0.0)


@dataclass
class TraceStats:
    """Everything ``repro stats`` renders from one trace."""

    records: int = 0
    clock: str = "?"
    schema: Optional[int] = None
    simulations: int = 0
    sim_total_s: float = 0.0
    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    strategies: Dict[str, StrategyStats] = field(default_factory=dict)
    spans: Dict[str, List[float]] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)


def aggregate(records: Sequence[dict]) -> TraceStats:
    """Fold trace records into :class:`TraceStats`."""
    stats = TraceStats(records=len(records))
    for record in records:
        kind = record.get("kind")
        if kind == "trace.start":
            stats.clock = str(record.get("clock", "?"))
            schema = record.get("schema")
            stats.schema = int(schema) if schema is not None else None
        elif kind == "simulator.run":
            stats.simulations += 1
            stats.sim_total_s += float(record.get("makespan", 0.0))
            for phase, seconds in dict(record.get("phases", {})).items():
                entry = stats.phases.setdefault(phase, PhaseStats(phase))
                entry.sims += 1
                entry.total_s += float(seconds)
        elif kind == "decision":
            name = str(record.get("strategy", "?"))
            entry = stats.strategies.setdefault(name, StrategyStats(name))
            entry.decisions += 1
            entry.arms.add(int(record.get("arm", -1)))
            entry.total_overhead += float(record.get("overhead_s", 0.0))
            entry.total_duration += float(record.get("duration", 0.0))
            entry.overheads.append(float(record.get("overhead_s", 0.0)))
            if "acquisition" in record:
                entry.acquisitions.append(float(record["acquisition"]))
            if "posterior_sd" in record:
                entry.posterior_sds.append(float(record["posterior_sd"]))
        elif kind == "cell":
            name = str(record.get("strategy", "?"))
            entry = stats.strategies.setdefault(name, StrategyStats(name))
            entry.cells += 1
            entry.cell_total += float(record.get("total", 0.0))
        elif kind == "span":
            name = str(record.get("name", "?"))
            stats.spans.setdefault(name, []).append(
                float(record.get("dur", 0.0))
            )
        elif kind == "summary":
            registry = dict(record.get("registry", {}))
            for name, value in dict(registry.get("counters", {})).items():
                stats.counters[name] = (
                    stats.counters.get(name, 0) + int(value)
                )
    return stats


def load_trace(path: Union[str, Path]) -> TraceStats:
    """Read a JSONL trace file and aggregate it."""
    return aggregate(read_trace(path))


#: Bump when the `repro stats --format json` layout changes incompatibly.
#: v2: strategy blocks carry overhead tails (p95/p99) and GP telemetry
#: (mean acquisition / posterior sd).  v3: no ``histograms`` block
#: (counters are the only metric a trace summary carries).
STATS_SCHEMA_VERSION = 3


def stats_to_json(stats: TraceStats) -> dict:
    """Machine-readable rendering of :class:`TraceStats`.

    The schema is pinned by ``tests/test_cli_stats.py``; every value is
    a plain JSON scalar/object so downstream tooling can consume it
    without this package.
    """
    return {
        "schema": STATS_SCHEMA_VERSION,
        "records": stats.records,
        "clock": stats.clock,
        "trace_schema": stats.schema,
        "simulations": stats.simulations,
        "sim_total_s": stats.sim_total_s,
        "phases": {
            p.phase: {"sims": p.sims, "total_s": p.total_s, "mean_s": p.mean_s}
            for p in stats.phases.values()
        },
        "strategies": {
            s.strategy: {
                "decisions": s.decisions,
                "cells": s.cells,
                "arms": sorted(s.arms),
                "mean_overhead": s.mean_overhead,
                "overhead_p95": s.overhead_p95,
                "overhead_p99": s.overhead_p99,
                "mean_acquisition": s.mean_acquisition,
                "mean_posterior_sd": s.mean_posterior_sd,
                "observed_total_s": s.total_duration,
            }
            for s in stats.strategies.values()
        },
        "spans": {
            name: {
                "count": len(durs),
                "total": sum(durs),
                "mean": sum(durs) / len(durs) if durs else 0.0,
            }
            for name, durs in stats.spans.items()
        },
        "counters": dict(stats.counters),
    }


def render_stats(stats: TraceStats) -> str:
    """Human-readable per-phase / per-strategy / counter tables."""
    # Imported lazily: repro.evaluate imports repro.obs at module load.
    from ..evaluate.report import format_table

    out: List[str] = [
        f"trace: {stats.records} records, clock={stats.clock}, "
        f"schema={stats.schema}"
    ]
    if stats.phases:
        out.append("")
        out.append(
            f"per-phase (from {stats.simulations} simulations, "
            f"{stats.sim_total_s:.3f} simulated s total):"
        )
        out.append(format_table(
            ["phase", "sims", "total [s]", "mean [s]"],
            [[p.phase, p.sims, f"{p.total_s:.3f}", f"{p.mean_s:.3f}"]
             for p in sorted(stats.phases.values(), key=lambda p: p.phase)],
        ))
    if stats.strategies:
        unit = "ticks" if stats.clock == "ticks" else "s"
        out.append("")
        out.append("per-strategy (decision log):")
        out.append(format_table(
            ["strategy", "decisions", "cells", "arms", f"overhead/iter [{unit}]",
             f"p95 [{unit}]", f"p99 [{unit}]", "observed total [s]"],
            [[s.strategy, s.decisions, s.cells, len(s.arms),
              f"{s.mean_overhead:.3f}", f"{s.overhead_p95:.3f}",
              f"{s.overhead_p99:.3f}", f"{s.total_duration:.3f}"]
             for s in sorted(stats.strategies.values(),
                             key=lambda s: s.strategy)],
        ))
        gp = [s for s in sorted(stats.strategies.values(),
                                key=lambda s: s.strategy)
              if s.acquisitions or s.posterior_sds]
        if gp:
            out.append("")
            out.append("GP telemetry (posterior at the chosen arm):")
            out.append(format_table(
                ["strategy", "mean acquisition", "mean posterior sd"],
                [[s.strategy, f"{s.mean_acquisition:.3f}",
                  f"{s.mean_posterior_sd:.3f}"] for s in gp],
            ))
    if stats.spans:
        out.append("")
        out.append("spans:")
        out.append(format_table(
            ["span", "count", "total", "mean"],
            [[name, len(durs), f"{sum(durs):.3f}",
              f"{sum(durs) / len(durs):.3f}"]
             for name, durs in sorted(stats.spans.items())],
        ))
    if stats.counters:
        out.append("")
        out.append("counters:")
        out.append(format_table(
            ["counter", "value"],
            [[name, stats.counters[name]] for name in sorted(stats.counters)],
        ))
    return "\n".join(out)
