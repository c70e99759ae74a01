"""Cross-run performance ledger with a CI regression gate.

Autotuning systems live and die by their measurement history: the
paper's related work accumulates per-run performance databases the same
way (multitask-learning tuners warm-start from them).  This module gives
the reproduction that durable layer:

* an **append-only, schema-versioned JSONL ledger**
  (``benchmarks/perf_ledger.jsonl`` by default) of per-run aggregates --
  the timeline analytics of :mod:`repro.obs.timeline` (makespan,
  per-phase makespans, idleness, critical-path length, communication
  time) of one traced iteration;
* a **regression gate**: ``repro perf check`` recomputes the current
  metrics and compares them against the most recent ledger entry with a
  *matching experiment config* (scenario, workload, tile count, plan) --
  relative increases beyond the threshold on any gated metric exit
  non-zero, which CI turns into a blocking check once a baseline exists.

Only *simulated-time* metrics are gated: they are pure functions of the
code, so a trip is a real code-induced regression, never machine noise.
Wall-clock cost is measured layer by layer by ``perfbench/``, not here.

Ledger timestamps come from the repository's single audited calendar
source (:class:`repro.obs.clock.WallClock`); no new wall-clock read is
introduced, so the DET001 allowlist stays at exactly one module.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .clock import Clock, WallClock
from .sink import write_atomic

#: Bump when the ledger entry layout changes incompatibly.
LEDGER_SCHEMA_VERSION = 1

#: Default ledger location (committed, so CI has a baseline to gate on).
DEFAULT_LEDGER = Path("benchmarks") / "perf_ledger.jsonl"

#: Canonical root-level trajectory artifact written by `repro perf record`.
ROOT_TIMELINE_OUT = Path("BENCH_timeline.json")

#: Metrics compared by the gate (all simulated-time, lower is better).
#: Phase-level makespans are gated via the prefix.
GATED_METRICS = (
    "makespan_s",
    "critical_path_s",
    "mean_idleness",
    "comm_time_s",
)

#: Prefixes of additional gated metric families.
GATED_PREFIXES = ("phase_makespan_s.",)

#: Default relative-increase threshold before a gated metric regresses.
DEFAULT_THRESHOLD = 0.10


def is_gated(metric: str) -> bool:
    """Whether the regression gate compares this metric."""
    return metric in GATED_METRICS or any(
        metric.startswith(p) for p in GATED_PREFIXES
    )


@dataclass(frozen=True)
class MetricCheck:
    """Outcome of comparing one metric against the baseline."""

    metric: str
    baseline: float
    current: float
    rel_change: float
    threshold: float
    gated: bool
    regressed: bool


@dataclass
class CheckReport:
    """Outcome of one ``repro perf check`` run."""

    label: str
    baseline_found: bool
    checks: List[MetricCheck]
    threshold: float

    @property
    def regressions(self) -> List[MetricCheck]:
        """The checks that tripped the gate."""
        return [c for c in self.checks if c.regressed]

    @property
    def ok(self) -> bool:
        """True when no gated metric regressed."""
        return not self.regressions


def compare_metrics(
    current: Dict[str, float],
    baseline: Dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
    gated_only: bool = False,
) -> List[MetricCheck]:
    """Compare two metric dicts; gated metrics trip beyond ``threshold``.

    The relative change is signed, ``(current - baseline) / |baseline|``
    (positive = increase); gated metrics are lower-is-better, so only
    increases regress.  Metrics present on one side only are skipped --
    a renamed or newly added metric must first be recorded before it can
    gate.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    checks: List[MetricCheck] = []
    for metric in sorted(set(current) & set(baseline)):
        gated = is_gated(metric)
        if gated_only and not gated:
            continue
        base = float(baseline[metric])
        cur = float(current[metric])
        rel = (cur - base) / max(abs(base), 1e-12)
        checks.append(
            MetricCheck(
                metric=metric,
                baseline=base,
                current=cur,
                rel_change=rel,
                threshold=threshold,
                gated=gated,
                regressed=gated and rel > threshold,
            )
        )
    return checks


class LedgerError(ValueError):
    """A ledger line other than the final one does not parse."""


class PerfLedger:
    """Append-only JSONL ledger of per-run performance aggregates."""

    def __init__(self, path: Union[str, Path] = DEFAULT_LEDGER) -> None:
        self.path = Path(path)

    def _read(self) -> Tuple[List[dict], Optional[int]]:
        """Parsed entries plus the byte offset of a torn final line.

        An unparseable *final* line is what an interrupted append leaves
        behind: it is skipped with a warning on stderr and its offset is
        returned (``None`` when the file ends cleanly).  An unparseable
        line anywhere else is corruption and raises :class:`LedgerError`.
        """
        if not self.path.exists():
            return [], None
        lines = self.path.read_bytes().splitlines(keepends=True)
        last = max((i for i, raw in enumerate(lines) if raw.strip()),
                   default=-1)
        out: List[dict] = []
        offset = 0
        for i, raw in enumerate(lines):
            if raw.strip():
                try:
                    entry = json.loads(raw)
                except ValueError:
                    entry = None
                if not isinstance(entry, dict):
                    if i < last:
                        raise LedgerError(
                            f"{self.path}:{i + 1}: unparseable ledger line"
                        )
                    print(f"warning: {self.path}:{i + 1}: skipping the "
                          "unparseable final line (interrupted append?)",
                          file=sys.stderr)
                    return out, offset
                out.append(entry)
            offset += len(raw)
        return out, None

    def entries(self) -> List[dict]:
        """All parseable entries, oldest first.

        Entries written by a *newer* schema are skipped (forward
        compatibility: an old checkout gating against a new ledger
        simply sees no baseline) -- blank lines are ignored.
        """
        return [
            entry for entry in self._read()[0]
            if int(entry.get("schema", 0)) <= LEDGER_SCHEMA_VERSION
        ]

    def append(self, entry: dict) -> dict:
        """Append one entry (stamped with the schema version).

        A torn final line left by an interrupted append is cut off first,
        so the new entry starts on a line of its own.
        """
        stamped = dict(entry, schema=LEDGER_SCHEMA_VERSION)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        torn = self._read()[1]
        if torn is not None:
            with self.path.open("r+b") as fh:
                fh.truncate(torn)
        with self.path.open("a", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(stamped, sort_keys=True,
                                separators=(",", ":")) + "\n")
        return stamped

    def baseline(
        self, label: str, config: Optional[dict] = None
    ) -> Optional[dict]:
        """Most recent entry for ``label`` (and matching ``config``).

        Config matching keeps the gate honest: a run at 8 tiles must
        never be compared against a baseline recorded at 40.
        """
        for entry in reversed(self.entries()):
            if entry.get("label") != label:
                continue
            if config is not None and entry.get("config") != config:
                continue
            return entry
        return None


def make_entry(
    label: str,
    metrics: Dict[str, float],
    config: Optional[dict] = None,
    note: str = "",
    source: str = "repro perf record",
    clock: Optional[Clock] = None,
) -> dict:
    """Build a ledger entry (without appending it).

    ``recorded_at`` is calendar metadata only -- recorded, never
    compared -- and comes from the audited observability clock; pass a
    :class:`~repro.obs.clock.TickClock` for byte-deterministic entries.
    """
    clock = clock if clock is not None else WallClock()
    entry = {
        "label": label,
        "metrics": dict(metrics),
        "config": dict(config) if config else {},
        "recorded_at": clock.wall_time(),
        "source": source,
    }
    if note:
        entry["note"] = note
    return entry


def collect_metrics(
    scenario_key: str,
    n_fact: Optional[int] = None,
    n_gen: Optional[int] = None,
):
    """Compute the current run's ledger metrics for one scenario.

    Returns ``(metrics, config)``: the flattened timeline analytics of a
    deterministic traced iteration.
    """
    from .timeline import analyze, flat_metrics, simulate_timeline

    result, cluster, graph, cfg = simulate_timeline(
        scenario_key, n_fact=n_fact, n_gen=n_gen
    )
    return flat_metrics(analyze(result, cluster, graph)), cfg


def check_against_ledger(
    ledger: PerfLedger,
    label: str,
    metrics: Dict[str, float],
    config: Optional[dict] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> CheckReport:
    """Gate ``metrics`` against the ledger's most recent matching entry.

    No matching baseline => ``baseline_found=False`` with an empty check
    list (the CLI treats that as a non-blocking warn, so the very first
    CI run passes and every later one gates).
    """
    entry = ledger.baseline(label, config=config)
    if entry is None:
        return CheckReport(
            label=label, baseline_found=False, checks=[], threshold=threshold
        )
    checks = compare_metrics(
        metrics, dict(entry.get("metrics", {})), threshold=threshold
    )
    return CheckReport(
        label=label, baseline_found=True, checks=checks, threshold=threshold
    )


def write_root_report(
    label: str,
    metrics: Dict[str, float],
    config: Optional[dict] = None,
    path: Union[str, Path] = ROOT_TIMELINE_OUT,
    extra: Optional[dict] = None,
) -> Path:
    """Write the canonical root-level ``BENCH_timeline.json`` artifact.

    This is the documented location trajectory tooling reads (the
    sibling of ``BENCH_faults.json``); the content mirrors the ledger
    entry that was just recorded.
    """
    payload = {
        "schema": LEDGER_SCHEMA_VERSION,
        "label": label,
        "config": dict(config) if config else {},
        "metrics": dict(metrics),
    }
    if extra:
        payload.update(extra)
    out = Path(path)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    return write_atomic(out, json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")


def render_check_report(report: CheckReport, verbose: bool = False) -> str:
    """Human-readable gate outcome (the `repro perf check` output)."""
    from ..evaluate.report import format_table

    lines: List[str] = []
    if not report.baseline_found:
        lines.append(
            f"perf check [{report.label}]: no matching ledger baseline -- "
            "record one with `repro perf record` (non-blocking)"
        )
        return "\n".join(lines)
    shown = [c for c in report.checks if c.gated or verbose]
    rows = []
    for c in shown:
        verdict = "REGRESSED" if c.regressed else ("ok" if c.gated else "info")
        rows.append([
            c.metric, f"{c.baseline:.6f}", f"{c.current:.6f}",
            f"{c.rel_change:+.2%}", verdict,
        ])
    lines.append(
        f"perf check [{report.label}]: threshold +{report.threshold:.0%} "
        f"on {sum(1 for c in report.checks if c.gated)} gated metrics"
    )
    lines.append(format_table(
        ["metric", "baseline", "current", "delta", "verdict"], rows
    ))
    if report.ok:
        lines.append("perf check: PASS")
    else:
        worst = max(report.regressions, key=lambda c: c.rel_change)
        lines.append(
            f"perf check: FAIL -- {len(report.regressions)} regression(s); "
            f"worst {worst.metric} {worst.rel_change:+.2%}"
        )
    return "\n".join(lines)
