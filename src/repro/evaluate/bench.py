"""`repro bench`: wall-clock benchmark of the parallel, cache-accelerated harness.

Runs the experiment grid twice and reports the acceleration the harness
delivers over the plain serial path:

* **pass A (reference)** -- serial sweeps and serial evaluation, the
  pre-harness behaviour (the duration cache starts from whatever the
  optional disk spill held, so repeated bench runs measure a warm A too);
* **pass B (accelerated)** -- sweeps answered from the now-warm
  :class:`~repro.evaluate.cache.DurationCache` and the evaluation grid
  fanned out over ``workers`` processes.

Both passes must agree bit-for-bit (``identical`` in the report); the
headline ``speedup`` is wall-clock A over wall-clock B.  The JSON report
(schema below, pinned by ``tests/test_cli_bench.py``) lands in
``benchmarks/out/BENCH_harness.json`` and is mirrored byte-for-byte to
the repository root (``BENCH_harness.json``, the canonical location
cross-PR perf-trajectory tooling scans) so the repository's performance
trajectory finally has machine-readable data.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import config
from ..measure.sweep import sweep_scenario
from ..obs import write_atomic
from ..platform import get_scenario
from .cache import DurationCache
from .parallel import (
    ALL_NODES_CELL,
    ORACLE_CELL,
    plan_cells,
    run_cells,
    stderr_progress,
)
from .runner import ScenarioEvaluation, assemble_evaluations, evaluate_scenarios

#: Bump when the BENCH_harness.json layout changes.
BENCH_SCHEMA_VERSION = 1

#: Default output location (the repo's benchmark artifact directory).
DEFAULT_OUT = Path("benchmarks") / "out" / "BENCH_harness.json"

#: Canonical root-level copy: cross-PR perf-trajectory tooling scans the
#: repository root for ``BENCH_*.json``, so the report is mirrored there
#: (same bytes as the ``benchmarks/out`` artifact).
ROOT_OUT = Path("BENCH_harness.json")

#: Human-readable names for the baseline sentinels in the cell log.
_CELL_NAMES = {ALL_NODES_CELL: "All-nodes", ORACLE_CELL: "Oracle"}


def evaluations_identical(
    a: Dict[str, ScenarioEvaluation], b: Dict[str, ScenarioEvaluation]
) -> bool:
    """Bit-exact equality of two evaluation result sets."""
    if sorted(a) != sorted(b):
        return False
    for key in a:
        ea, eb = a[key], b[key]
        if (ea.label, ea.best_action) != (eb.label, eb.best_action):
            return False
        if (ea.all_nodes_mean, ea.oracle_mean) != (eb.all_nodes_mean,
                                                   eb.oracle_mean):
            return False
        if len(ea.summaries) != len(eb.summaries):
            return False
        for sa, sb in zip(ea.summaries, eb.summaries):
            if (sa.name, sa.group, sa.gain_pct) != (sb.name, sb.group,
                                                    sb.gain_pct):
                return False
            if not np.array_equal(sa.totals, sb.totals):
                return False
    return True


def banks_identical(a, b) -> bool:
    """Bit-exact equality of two bank dicts (cold vs cache-served)."""
    if sorted(a) != sorted(b):
        return False
    for key in a:
        ba, bb = a[key], b[key]
        if ba.actions != bb.actions or ba.label != bb.label:
            return False
        for n in ba.actions:
            if not np.array_equal(ba.samples[n], bb.samples[n]):
                return False
            if ba.true_means.get(n) != bb.true_means.get(n):
                return False
    return True


def run_harness_benchmark(
    scenario_keys: Sequence[str] = ("c", "i", "p"),
    strategies: Sequence[str] = ("DC", "Right-Left", "UCB"),
    iterations: int = 40,
    reps: int = 5,
    workers: int = 4,
    augment: int = config.AUGMENT_SAMPLES,
    sweep_seed: int = 12345,
    out_path: Optional[Path] = None,
    spill_path: Optional[Path] = None,
    root_path: Optional[Path] = None,
    progress: bool = False,
) -> dict:
    """Benchmark the harness and return (and optionally write) the report.

    Raises ``ValueError`` for an unknown scenario key or ``workers < 1``
    (the CLI maps both to exit code 2).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    scenarios = [get_scenario(key) for key in scenario_keys]

    cache = DurationCache(spill_path=spill_path)
    preloaded = cache.load() if spill_path is not None else 0

    # -- pass A: serial reference ------------------------------------------------
    t0 = time.perf_counter()
    banks_a = {
        s.key: sweep_scenario(
            s, augment=augment, seed=sweep_seed, progress=progress,
            workers=1, cache=cache,
        )
        for s in scenarios
    }
    sweep_serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    evals_a = evaluate_scenarios(
        banks_a, strategies, iterations=iterations, reps=reps, workers=1
    )
    eval_serial_s = time.perf_counter() - t0
    cache_cold = cache.stats()
    cache.reset_stats()

    # -- pass B: warm cache + process pool ---------------------------------------
    t0 = time.perf_counter()
    banks_b = {
        s.key: sweep_scenario(
            s, augment=augment, seed=sweep_seed, progress=progress,
            workers=workers, cache=cache,
        )
        for s in scenarios
    }
    sweep_warm_s = time.perf_counter() - t0
    cells = plan_cells(banks_b, strategies, reps)
    t0 = time.perf_counter()
    results = run_cells(
        banks_b, cells, iterations, workers=workers,
        progress=stderr_progress("bench cells") if progress else None,
    )
    eval_parallel_s = time.perf_counter() - t0
    evals_b = assemble_evaluations(banks_b, strategies, results)
    cache_warm = cache.stats()

    identical = (
        banks_identical(banks_a, banks_b)
        and evaluations_identical(evals_a, evals_b)
    )
    serial_s = sweep_serial_s + eval_serial_s
    parallel_s = sweep_warm_s + eval_parallel_s
    cell_log: List[dict] = [
        {
            "scenario": r.cell.scenario,
            "strategy": _CELL_NAMES.get(r.cell.strategy, r.cell.strategy),
            "rep": r.cell.rep,
            "seconds": r.seconds,
        }
        for r in results
    ]

    report = {
        "schema": BENCH_SCHEMA_VERSION,
        "config": {
            "scenarios": list(scenario_keys),
            "strategies": list(strategies),
            "iterations": iterations,
            "reps": reps,
            "workers": workers,
            "augment": augment,
        },
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": serial_s / max(parallel_s, 1e-12),
        "identical": identical,
        "cache": dict(cache_warm, preloaded_entries=preloaded),
        "cache_cold": cache_cold,
        "phases": {
            "sweep_serial_seconds": sweep_serial_s,
            "eval_serial_seconds": eval_serial_s,
            "sweep_warm_seconds": sweep_warm_s,
            "eval_parallel_seconds": eval_parallel_s,
        },
        "cells": cell_log,
    }
    if spill_path is not None:
        cache.spill()
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(out_path, rendered)
    if root_path is not None:
        root_path = Path(root_path)
        if root_path.parent != Path("."):
            root_path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(root_path, rendered)
    return report
