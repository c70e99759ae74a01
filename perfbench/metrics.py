"""Metric definitions, percentile rules and the printed tables.

End-to-end metrics come from untraced runs and have the same names on
every workload; what an "operation" is depends on the workload (a
simulated configuration, a strategy iteration, a wire request), and
:data:`ALIASES` gives each its workload-specific name.  Per-layer
metrics come from traced runs; a layer a workload does not exercise
reads 0 there.

A percentile is reported only when at least ten samples lie beyond it;
otherwise it reads 0 and the table says so, with the sample count.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .inputs import PAPER_STRATEGIES, SERVE_MIX
from .workloads import Context, metric_name

#: (name, unit, better) of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Tail percentile of ``op_tail_ms`` per workload.
TAIL = {"sweep-cold": 90, "tune-warm": 99, "serve-mixed": 99}

#: Workload-specific names of the generic metrics: (name, scale).
ALIASES: Dict[str, Dict[str, Tuple[str, float]]] = {
    "sweep-cold": {"ops_per_s": ("sweep_configs_per_s", 1.0),
                   "op_p50_ms": ("sweep_config_p50_ms", 1.0),
                   "op_tail_ms": ("sweep_config_p90_ms", 1.0)},
    "tune-warm": {"ops_per_s": ("tune_iters_per_s", 1.0),
                  "op_p50_ms": ("decide_p50_us", 1e3),
                  "op_tail_ms": ("decide_p99_us", 1e3)},
    "serve-mixed": {"ops_per_s": ("serve_requests_per_s", 1.0),
                    "op_p50_ms": ("serve_propose_p50_ms", 1.0),
                    "op_tail_ms": ("serve_propose_p99_ms", 1.0)},
}

#: Every strategy a workload runs, by metric name.
STRATEGY_NAMES = tuple(dict.fromkeys(
    [metric_name(s) for s in PAPER_STRATEGIES] + ["All-nodes", "Oracle"]
    + [metric_name(s) for s, _ in SERVE_MIX]))


def _per_layer() -> Tuple[Tuple[str, str, str], ...]:
    rows: List[Tuple[str, str, str]] = [
        ("import_s", "s", "lower"),
        ("platform.build_cluster_s", "s", "lower"),
        ("geostat.graph_build_s", "s", "lower"),
        ("geostat.tasks", "count", "higher"),
        ("runtime.compile_s", "s", "lower"),
        ("runtime.bind_s", "s", "lower"),
        ("runtime.engine_s", "s", "lower"),
        ("runtime.engine_us_per_task", "us", "lower"),
        ("runtime.tasks", "count", "higher"),
        ("runtime.transfers", "count", "higher"),
        ("runtime.configs", "count", "higher"),
        ("runtime.wave_task_share", "ratio", "higher"),
        ("runtime.vector_task_share", "ratio", "higher"),
        ("runtime.reference_ratio", "ratio", "higher"),
        ("runtime.template_ratio", "ratio", "higher"),
        ("distribution.place_s", "s", "lower"),
        ("distribution.lp_s", "s", "lower"),
        ("measure.noise_s", "s", "lower"),
        ("measure.bank_load_s", "s", "lower"),
        ("measure.resample_us_p50", "us", "lower"),
        ("measure.resamples", "count", "higher"),
        ("evaluate.cache.hits", "count", "higher"),
        ("evaluate.cache.hit_rate", "ratio", "higher"),
        ("evaluate.cache.spill_s", "s", "lower"),
        ("evaluate.cache.load_s", "s", "lower"),
        ("evaluate.cells", "count", "higher"),
        ("evaluate.cell_ms_p50", "ms", "lower"),
        ("evaluate.harness_self_s", "s", "lower"),
    ]
    for name in STRATEGY_NAMES:
        rows += [
            (f"strategies.{name}.decisions", "count", "higher"),
            (f"strategies.{name}.propose_us_p50", "us", "lower"),
            (f"strategies.{name}.propose_us_p90", "us", "lower"),
            (f"strategies.{name}.observe_us_p50", "us", "lower"),
            (f"strategies.{name}.observe_us_p90", "us", "lower"),
        ]
    rows += [
        ("gp.fits", "count", "higher"),
        ("gp.fit_ms_p50", "ms", "lower"),
        ("gp.fit_ms_p90", "ms", "lower"),
        ("gp.predict_us_p50", "us", "lower"),
        ("gp.fit_share", "ratio", "lower"),
        ("serve.requests", "count", "higher"),
        ("serve.parse_us_p50", "us", "lower"),
        ("serve.render_us_p50", "us", "lower"),
        ("serve.handle_us_p50", "us", "lower"),
        ("serve.ticks", "count", "higher"),
        ("serve.tick_ms_p50", "ms", "lower"),
        ("serve.tick_ms_p90", "ms", "lower"),
        ("serve.queue_wait_ticks_p99", "ticks", "lower"),
        ("serve.errors", "count", "lower"),
        ("serve.bank_store.hit_rate", "ratio", "higher"),
        ("obs.spans", "count", "lower"),
        ("obs.trace_overhead", "ratio", "lower"),
        ("obs.self_time_coverage", "ratio", "higher"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()

def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The q-th percentile, or None without ten samples beyond it."""
    if len(values) * (100.0 - q) / 100.0 < 10:
        return None
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Report:
    """Metric values plus the notes (sample counts, bases) printed with them."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}

    def put(self, name: str, value: float, note: str = "") -> None:
        self.values[name] = float(value)
        if note:
            self.notes[name] = note

    def pct(self, name: str, values: Sequence[float], q: float,
            scale: float) -> None:
        got = percentile(values, q)
        if got is None:
            self.put(name, 0.0, f"not reported: n={len(values)} < "
                                f"{int(np.ceil(1000 / (100 - q)))}")
        else:
            self.put(name, got * scale, f"n={len(values)}")

    def ratio(self, name: str, num: float, den: float, base: str) -> None:
        self.put(name, num / den if den else 0.0,
                 f"{num:g}/{den:g} {base}")


def end_to_end(ctx: Context, setup: Sequence[float], setup_factor: float,
               peak_rss_mb: float) -> Report:
    """End-to-end metrics, times scaled to the reference host speed.

    The workload's times are scaled by the calibrations taken while it
    ran (``ctx.speed``); the set-up walls by ``setup_factor``.
    """
    speed = ctx.speed
    end = ctx.started + ctx.wall
    wall = speed.scaled(ctx.started, end)
    raw_wall = ctx.wall - sum(e - s for s, e, _ in speed.marks
                              if ctx.started <= s < end)
    report = Report()
    report.put("ops_per_s", ctx.ops / wall,
               f"{ctx.ops} ops in {wall:.3f} scaled s; raw "
               f"{ctx.ops / raw_wall:.6g} over {raw_wall:.3f} s; "
               f"{len(speed.marks)} calibrations")
    scaled = speed.scale(ctx.op_times, ctx.op_ends)
    for name, q in (("op_p50_ms", 50), ("op_tail_ms", TAIL[ctx.workload])):
        report.pct(name, scaled, q, 1e3)
        raw = percentile(ctx.op_times, q)
        if raw is not None:
            report.notes[name] += f"; raw {raw * 1e3:.6g}"
    report.put("setup_s", statistics.median(setup) * setup_factor,
               f"scale {setup_factor:.4f}; raw "
               + ", ".join(f"{s:.3f}" for s in setup))
    report.put("peak_rss_mb", peak_rss_mb)
    return report


def per_layer(ctx: Context, probes: List[Dict[str, float]],
              traced_wall: float, overhead: float) -> Report:
    """Per-layer metrics of a traced run (``ctx.rec`` holds the spans)."""
    rec = ctx.rec
    assert rec is not None
    own = rec.self_by_name()
    counts = ctx.counts
    report = Report()

    def self_s(*names: str) -> float:
        return sum(own.get(n, 0.0) for n in names)

    spans = rec.durations()

    def durations(name: str) -> List[float]:
        return spans.get(name, [])

    for key, probe_key in (("import_s", "import_s"),
                           ("platform.build_cluster_s", "build_cluster_s"),
                           ("measure.bank_load_s", "bank_load_s")):
        samples = [p[probe_key] for p in probes]
        report.put(key, statistics.median(samples),
                   f"set-up probe median, n={len(samples)}")

    tasks = counts.get("runtime.tasks", 0.0)
    report.put("geostat.graph_build_s", self_s("geostat.graph_build"))
    report.put("geostat.tasks", counts.get("geostat.tasks", 0.0))
    report.put("runtime.compile_s", self_s("runtime.compile"))
    report.put("runtime.bind_s", self_s("runtime.bind"))
    report.put("runtime.engine_s", self_s("runtime.engine"))
    report.ratio("runtime.engine_us_per_task",
                 self_s("runtime.engine") * 1e6, tasks, "us/tasks")
    report.put("runtime.tasks", tasks)
    report.put("runtime.transfers", counts.get("runtime.transfers", 0.0))
    report.put("runtime.configs", counts.get("runtime.configs", 0.0))
    report.ratio("runtime.wave_task_share",
                 counts.get("runtime.wave_tasks", 0.0), tasks, "tasks")
    report.ratio("runtime.vector_task_share",
                 counts.get("runtime.vector_tasks", 0.0), tasks, "tasks")
    report.put("runtime.reference_ratio",
               counts.get("runtime.reference_ratio", 0.0),
               f"reference/fast run time over "
               f"{counts.get('runtime.reference_configs', 0):g} config(s)")
    builds = len(durations("measure.batch_init"))
    binds = durations("runtime.bind")
    per_build = (sum(durations("geostat.graph_build"))
                 + sum(durations("runtime.compile"))) / builds if builds else 0
    per_bind = sum(binds) / len(binds) if binds else 0.0
    report.ratio("runtime.template_ratio", per_build, per_bind,
                 f"s build+compile per scenario / s bind per config "
                 f"({builds} builds, {len(binds)} binds)")
    report.put("distribution.place_s", self_s("distribution.place"))
    report.put("distribution.lp_s", self_s("distribution.lp"))
    report.put("measure.noise_s", self_s("measure.noise"))
    resamples = durations("measure.resample")
    report.pct("measure.resample_us_p50", resamples, 50, 1e6)
    report.put("measure.resamples", len(resamples))

    hits = counts.get("evaluate.cache.hits", 0.0)
    report.put("evaluate.cache.hits", hits)
    report.ratio("evaluate.cache.hit_rate", hits,
                 counts.get("evaluate.cache.lookups", 0.0), "lookups")
    report.put("evaluate.cache.spill_s", self_s("evaluate.cache_spill"))
    report.put("evaluate.cache.load_s", self_s("evaluate.cache_load"))
    cells = durations("evaluate.cell")
    report.put("evaluate.cells", len(cells))
    report.pct("evaluate.cell_ms_p50", cells, 50, 1e3)
    report.put("evaluate.harness_self_s",
               self_s("evaluate.scenario", "evaluate.cell"))

    for name in STRATEGY_NAMES:
        prefix = f"strategies.{name}"
        proposes = durations(f"{prefix}.propose")
        observes = durations(f"{prefix}.observe")
        report.put(f"{prefix}.decisions", len(proposes))
        for call, values in (("propose", proposes), ("observe", observes)):
            report.pct(f"{prefix}.{call}_us_p50", values, 50, 1e6)
            report.pct(f"{prefix}.{call}_us_p90", values, 90, 1e6)

    fits = durations("gp.fit")
    report.put("gp.fits", len(fits))
    report.pct("gp.fit_ms_p50", fits, 50, 1e3)
    report.pct("gp.fit_ms_p90", fits, 90, 1e3)
    report.pct("gp.predict_us_p50", durations("gp.predict"), 50, 1e6)
    report.ratio("gp.fit_share", sum(fits), traced_wall, "s of traced wall")

    report.put("serve.requests", len(durations("serve.handle")))
    report.pct("serve.parse_us_p50", durations("serve.parse"), 50, 1e6)
    report.pct("serve.render_us_p50", durations("serve.render"), 50, 1e6)
    report.pct("serve.handle_us_p50", durations("serve.handle"), 50, 1e6)
    ticks = durations("serve.tick")
    report.put("serve.ticks", len(ticks))
    report.pct("serve.tick_ms_p50", ticks, 50, 1e3)
    report.pct("serve.tick_ms_p90", ticks, 90, 1e3)
    report.pct("serve.queue_wait_ticks_p99",
               ctx.queue_waits, 99, 1.0)
    report.put("serve.errors", counts.get("serve.errors", 0.0))
    report.ratio("serve.bank_store.hit_rate",
                 counts.get("serve.bank_store.hits", 0.0),
                 counts.get("serve.bank_store.lookups", 0.0), "lookups")

    report.put("obs.spans", len(rec))
    report.put("obs.trace_overhead", overhead,
               "host-scaled traced / untraced wall of one unit - 1")
    total = sum(rec.self_times().values())
    report.ratio("obs.self_time_coverage", total, traced_wall,
                 "s of traced wall")
    return report


def layer_table(ctx: Context, traced_wall: float) -> List[str]:
    """Per-layer self-time rows and their sum against the traced wall."""
    rows = sorted(ctx.rec.self_times().items(), key=lambda kv: -kv[1])
    total = sum(v for _, v in rows)
    lines = [f"  {'layer':<14}{'self s':>10}{'share':>9}"]
    for layer, value in rows:
        lines.append(f"  {layer:<14}{value:>10.3f}{value / total:>9.1%}")
    lines.append(f"  {'sum':<14}{total:>10.3f}   traced wall "
                 f"{traced_wall:.3f} s ({total / traced_wall - 1:+.2%})")
    return lines


def format_report(report: Report, workload: Optional[str],
                  rows: Sequence[Tuple[str, str, str]]) -> List[str]:
    aliases = ALIASES.get(workload or "", {})
    lines = []
    for name, unit, better in rows:
        value = report.values[name]
        label = name
        if name in aliases:
            alias, scale = aliases[name]
            label = f"{name} = {alias} {value * scale:.6g}"
        note = report.notes.get(name, "")
        lines.append(f"  {label:<52} {value:>14.6g} {unit:<6} "
                     f"({better} is better) {note}")
    return lines
