"""Resampling evaluation of strategies over measurement banks.

The paper's Figure 6 protocol: every strategy runs for 127 iterations,
drawing iteration durations from the precomputed bank ("resampled in R
every time an action was chosen"), repeated 30 times; the mean total time
is compared to the all-nodes baseline and to the clairvoyant best
configuration.

Every (scenario, strategy, repetition) cell is independent, so the whole
grid routes through the cell harness of :mod:`repro.evaluate.parallel`:
seeds are derived per cell by :func:`~repro.evaluate.parallel.derive_cell_seed`
(the historical derivation, so totals are bit-identical to the
pre-harness code) and results are collected in plan order.  Routing
every evaluation through the same cells means each one emits the same
per-cell obs spans and decision logs when a trace is active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import config
from ..measure.bank import MeasurementBank
from ..obs import get_tracer
from ..strategies import STRATEGY_GROUPS, STRATEGY_ORDER
from .metrics import StrategySummary, summarize
from .parallel import (
    ALL_NODES_CELL,
    ORACLE_CELL,
    CellResult,
    ProgressFn,
    plan_cells,
    run_cell_trace,
    run_cells,
    stderr_progress,
)


def run_strategy_once(
    strategy, bank: MeasurementBank, iterations: int,
    rng: np.random.Generator, injector=None,
) -> float:
    """One run: total time over ``iterations`` resampled iterations."""
    total, _, _ = run_cell_trace(strategy, bank, iterations, rng, injector)
    return total


@dataclass
class ScenarioEvaluation:
    """Figure 6 panel for one scenario."""

    label: str
    all_nodes_mean: float        # top dashed line
    oracle_mean: float           # bottom dashed line
    best_action: int
    summaries: List[StrategySummary] = field(default_factory=list)

    def summary(self, name: str) -> StrategySummary:
        """Summary of one strategy by name."""
        for s in self.summaries:
            if s.name == name:
                return s
        raise KeyError(name)


def assemble_evaluations(
    banks: Dict[str, MeasurementBank],
    strategies: Sequence[str],
    results: Sequence[CellResult],
) -> Dict[str, ScenarioEvaluation]:
    """Aggregate ordered cell results into per-scenario evaluations.

    Results must come from :func:`repro.evaluate.parallel.run_cells` over
    a :func:`plan_cells` plan (repetition order within each (scenario,
    strategy) group fixes the aggregation's floating-point order).
    """
    totals: Dict[tuple, List[float]] = {}
    for result in results:
        key = (result.cell.scenario, result.cell.strategy)
        totals.setdefault(key, []).append(result.total)

    out: Dict[str, ScenarioEvaluation] = {}
    for key in sorted(banks):
        bank = banks[key]
        all_nodes = np.asarray(totals[(key, ALL_NODES_CELL)])
        oracle = np.asarray(totals[(key, ORACLE_CELL)])
        evaluation = ScenarioEvaluation(
            label=bank.label,
            all_nodes_mean=float(np.mean(all_nodes)),
            oracle_mean=float(np.mean(oracle)),
            best_action=bank.best_action(),
        )
        for name in strategies:
            arr = np.asarray(totals[(key, name)])
            evaluation.summaries.append(
                summarize(name, STRATEGY_GROUPS.get(name, "?"), arr,
                          evaluation.all_nodes_mean)
            )
        out[key] = evaluation
    return out


def evaluate_scenario(
    bank: MeasurementBank,
    strategies: Sequence[str] = STRATEGY_ORDER,
    iterations: int = config.EVAL_ITERATIONS,
    reps: int = config.EVAL_REPETITIONS,
    base_seed: int = 0,
    workers: int = 1,
    injector=None,
) -> ScenarioEvaluation:
    """Run every strategy on one bank (one Figure 6 panel).

    The harness is serial, so ``workers`` accepts only ``1``; the
    parameter stays for callers that still pass it.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1 (the harness is serial), "
                         f"got {workers!r}")
    label = getattr(bank, "label", "_")
    cells = plan_cells([label], strategies, reps)
    results = run_cells(
        {label: bank}, cells, iterations, base_seed, injector=injector,
    )
    return assemble_evaluations({label: bank}, strategies, results)[label]


def evaluate_scenarios(
    banks: Dict[str, MeasurementBank],
    strategies: Sequence[str] = STRATEGY_ORDER,
    iterations: int = config.EVAL_ITERATIONS,
    reps: int = config.EVAL_REPETITIONS,
    progress: bool = False,
    progress_cb: Optional[ProgressFn] = None,
    injector=None,
) -> Dict[str, ScenarioEvaluation]:
    """Figure 6: every strategy on every scenario bank.

    ``progress_cb`` receives ``(cells done, cells total)``.  ``injector``
    applies one fault schedule across the grid (``None`` = stationary,
    the default).
    """
    cells = plan_cells(banks, strategies, reps)
    if progress_cb is None and progress:
        progress_cb = stderr_progress("evaluating cells")
    tracer = get_tracer()
    with tracer.span("evaluate.scenarios", scenarios=len(banks),
                     cells=len(cells)):
        results = run_cells(
            banks, cells, iterations, progress=progress_cb,
            injector=injector,
        )
        return assemble_evaluations(banks, strategies, results)
