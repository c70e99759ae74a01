"""Fault campaign driver: raw vs. resilient strategies under faults.

The paper evaluates strategies on a *stationary* platform; this driver
opens the non-stationary axis by replaying the Figure 6 protocol under
the canned fault schedules of :func:`repro.faults.models.canned_schedules`
and comparing each raw strategy against its ``Resilient(<name>)``
wrapper.  The cells run through the standard harness
(:func:`repro.evaluate.parallel.run_cells` with an injector), so every
campaign is deterministic.

Regret accounting uses *expected* durations: the injector knows the
expected perturbed duration of every (iteration, action) pair given the
bank's true means, and the clairvoyant-under-faults oracle plays the
feasible action minimizing it each iteration.  Cumulative regret of a
run is the summed gap between the expected duration of the chosen
actions and the oracle's -- noise-free, so the raw-vs-resilient
comparison reflects decisions, not sampling luck.

:func:`write_campaign_report` emits the root-level ``BENCH_faults.json``
report (the sibling of ``BENCH_timeline.json`` and ``BENCH_serve.json``,
written by the same :func:`repro.obs.sink.write_root_report`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..faults.injector import FaultInjector
from ..faults.models import FaultSchedule, canned_schedules
from ..faults.resilience import resilient_name
from ..measure.bank import MeasurementBank
from ..obs import get_tracer, write_root_report
from .parallel import CellResult, plan_cells, run_cells

#: Raw strategies compared against their resilient wrappers by default.
DEFAULT_CAMPAIGN_BASES = ("DC", "UCB", "GP-discontinuous")

#: Canned schedule labels a default campaign covers (>= 3 scenarios).
DEFAULT_CAMPAIGN_SCHEDULES = ("straggler", "crash", "interference", "compound")


@dataclass(frozen=True)
class CampaignRow:
    """Aggregates of one (schedule, strategy) campaign group."""

    schedule: str
    strategy: str
    mean_total: float        # mean summed (perturbed) duration per rep
    mean_regret: float       # mean cumulative expected regret per rep
    degraded_frac: float     # fraction of iterations proposing > feasible

    @property
    def resilient(self) -> bool:
        """Whether this row is a ``Resilient(...)`` wrapper."""
        return self.strategy.startswith("Resilient(")


@dataclass
class CampaignResult:
    """Outcome of one fault campaign on one scenario bank."""

    scenario: str
    iterations: int
    reps: int
    rows: List[CampaignRow] = field(default_factory=list)
    #: Schedule label -> content fingerprint (for replay provenance).
    fingerprints: Dict[str, str] = field(default_factory=dict)

    def row(self, schedule: str, strategy: str) -> CampaignRow:
        """The aggregate row of one (schedule, strategy) group."""
        for r in self.rows:
            if r.schedule == schedule and r.strategy == strategy:
                return r
        raise KeyError((schedule, strategy))

    def improvements(self) -> List[dict]:
        """Raw-vs-resilient regret comparison per (schedule, base) pair."""
        out: List[dict] = []
        for r in self.rows:
            if r.resilient:
                continue
            try:
                wrapped = self.row(r.schedule, resilient_name(r.strategy))
            except KeyError:
                continue
            out.append({
                "schedule": r.schedule,
                "strategy": r.strategy,
                "raw_regret": r.mean_regret,
                "resilient_regret": wrapped.mean_regret,
                "improved": wrapped.mean_regret < r.mean_regret,
            })
        return out


def cumulative_fault_regret(
    injector: FaultInjector,
    chosen: Sequence[int],
    means: Dict[int, float],
    oracle: Optional[Sequence[float]] = None,
) -> float:
    """Cumulative expected regret of one run's action sequence.

    ``oracle`` is the precomputed per-iteration clairvoyant expected
    duration (recomputed from the injector when omitted); the regret of
    iteration ``t`` is the expected perturbed duration of the chosen
    action minus the oracle's, so a degraded proposal pays its crash
    penalty here exactly as it does in the perturbed totals.
    """
    if oracle is None:
        oracle = [
            injector.oracle_duration(t, means)[1]
            for t in range(len(chosen))
        ]
    total = 0.0
    for t, n in enumerate(chosen):
        total += injector.expected_duration(t, int(n), means) - oracle[t]
    return total


def _bank_means(bank: MeasurementBank) -> Dict[int, float]:
    """True (pre-noise) means per action, falling back to sample means."""
    if bank.true_means:
        return {int(n): float(v) for n, v in bank.true_means.items()}
    return {int(n): bank.mean(n) for n in bank.actions}


def _aggregate(
    schedule_label: str,
    strategy: str,
    results: Sequence[CellResult],
    injector: FaultInjector,
    means: Dict[int, float],
    oracle: Sequence[float],
) -> CampaignRow:
    totals = [r.total for r in results]
    regrets = [
        cumulative_fault_regret(injector, r.chosen, means, oracle)
        for r in results
    ]
    degraded = 0
    iters = 0
    for r in results:
        for t, n in enumerate(r.chosen):
            iters += 1
            if injector.plan(t, int(n)).degraded:
                degraded += 1
    return CampaignRow(
        schedule=schedule_label,
        strategy=strategy,
        mean_total=float(np.mean(totals)),
        mean_regret=float(np.mean(regrets)),
        degraded_frac=degraded / iters if iters else 0.0,
    )


def campaign_strategies(
    bases: Sequence[str] = DEFAULT_CAMPAIGN_BASES,
) -> List[str]:
    """The strategy list of a campaign: each base plus its wrapper."""
    names: List[str] = []
    for base in bases:
        names.append(base)
        names.append(resilient_name(base))
    return names


def run_campaign(
    bank: MeasurementBank,
    schedules: Optional[Dict[str, FaultSchedule]] = None,
    strategies: Optional[Sequence[str]] = None,
    iterations: int = 60,
    reps: int = 5,
    base_seed: int = 0,
    seed: int = 0,
    progress=None,
) -> CampaignResult:
    """Run every strategy under every fault schedule on one bank.

    ``schedules`` defaults to the :data:`DEFAULT_CAMPAIGN_SCHEDULES`
    subset of the canned scenarios sized to this bank and run length;
    ``strategies`` defaults to :func:`campaign_strategies` (raw and
    resilient variants of DC, UCB and GP-discontinuous).  Schedules run
    in sorted label order and cells in :func:`plan_cells` order, so the
    result is deterministic.
    """
    if schedules is None:
        canned = canned_schedules(bank.n_total, iterations, seed=seed)
        schedules = {
            key: canned[key] for key in DEFAULT_CAMPAIGN_SCHEDULES
            if key in canned
        }
    names = list(strategies) if strategies is not None \
        else campaign_strategies()
    means = _bank_means(bank)
    label = bank.label
    result = CampaignResult(
        scenario=label, iterations=iterations, reps=reps
    )
    tracer = get_tracer()
    with tracer.span("faults.campaign", scenario=label,
                     schedules=len(schedules), strategies=len(names),
                     reps=reps):
        for key in sorted(schedules):
            schedule = schedules[key]
            injector = FaultInjector(schedule, bank.actions, iterations)
            oracle = [
                injector.oracle_duration(t, means)[1]
                for t in range(iterations)
            ]
            cells = plan_cells([label], names, reps,
                               include_baselines=False)
            cell_results = run_cells(
                {label: bank}, cells, iterations, base_seed,
                progress=progress, injector=injector,
            )
            by_strategy: Dict[str, List[CellResult]] = {}
            for r in cell_results:
                by_strategy.setdefault(r.cell.strategy, []).append(r)
            for name in names:
                result.rows.append(_aggregate(
                    schedule.label, name, by_strategy[name],
                    injector, means, oracle,
                ))
            result.fingerprints[schedule.label] = schedule.fingerprint()
    return result


def campaign_table(result: CampaignResult) -> str:
    """Human-readable regret-under-faults table."""
    from .report import format_table

    return format_table(
        ["schedule", "strategy", "mean total [s]", "regret [s]",
         "degraded"],
        [[r.schedule, r.strategy, f"{r.mean_total:.2f}",
          f"{r.mean_regret:.2f}", f"{r.degraded_frac:.0%}"]
         for r in result.rows],
    )


#: Report unit of each :func:`campaign_metrics` family.
METRIC_UNITS = {"regret": "sim_s", "total": "sim_s", "degraded": "ratio"}


def campaign_metrics(result: CampaignResult) -> Dict[str, float]:
    """Flat metric dict of a campaign (the ``BENCH_faults.json`` body).

    Keys are ``<family>.<schedule>.<strategy>`` for the families of
    :data:`METRIC_UNITS`.  All values are simulated-time aggregates, so
    they are machine-independent.
    """
    metrics: Dict[str, float] = {}
    for r in result.rows:
        metrics[f"regret.{r.schedule}.{r.strategy}"] = r.mean_regret
        metrics[f"total.{r.schedule}.{r.strategy}"] = r.mean_total
        metrics[f"degraded.{r.schedule}.{r.strategy}"] = r.degraded_frac
    return metrics


def write_campaign_report(result: CampaignResult, path: Union[str, Path]) -> Path:
    """Write the campaign report (the committed one is ``BENCH_faults.json``).

    ``path`` has no default, so no caller rewrites the committed root
    report by leaving it out.
    """
    return write_root_report(
        path,
        f"faults-campaign {result.scenario}",
        {
            "scenario": result.scenario,
            "iterations": result.iterations,
            "reps": result.reps,
            "schedules": dict(result.fingerprints),
        },
        campaign_metrics(result),
        METRIC_UNITS,
        improvements=result.improvements(),
    )
