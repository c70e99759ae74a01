"""Cell harness: the evaluation grid as independent, seeded cells.

The Figure 6 protocol is a grid of independent *cells*: one cell is one
repetition of one strategy on one scenario bank (the paper: 16 scenarios
x ~10 strategies x 30 repetitions x 127 iterations).  Every cell is
self-contained -- its randomness comes from a per-cell seed, its inputs
are a read-only measurement bank -- and cells run serially in plan
order:

* :func:`derive_cell_seed` derives the seed-sequence entropy of a cell
  from the strategy name and repetition index alone (a stable CRC-32
  content hash -- never ``hash()``, never run order).  It reproduces the
  historical derivation exactly; the scenario enters through the bank
  each cell resamples, which decorrelates scenarios without touching
  the seed stream.
* :func:`plan_cells` fixes the cell order and :func:`run_cells` returns
  results in that order, so aggregation downstream is deterministic.
* :func:`run_cell_captured` gives every traced cell a private tick
  clock, so a cell's trace bytes depend only on the cell's identity.

See DESIGN.md ("Cell harness") for the seed-derivation and cache-key
contracts.
"""

from __future__ import annotations

import os
import sys
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from ..obs import MemorySink, TickClock, Tracer, WallClock, get_tracer, scoped
from ..strategies import AllNodesStrategy, OracleStrategy, make_strategy

#: Sentinel "strategy names" for the two Figure 6 baseline rows.  Real
#: strategy names never start with an underscore, so these cannot clash.
ALL_NODES_CELL = "__all-nodes__"
ORACLE_CELL = "__oracle__"

#: Seed-sequence tag of baseline cells (the historical runner constant).
BASELINE_TAG = 0xBA5E

#: Progress callback: ``(cells done, cells total)``.
ProgressFn = Callable[[int, int], None]


def derive_cell_seed(
    strategy: str, rep: int, base_seed: int = 0
) -> Tuple[int, int, int]:
    """Seed-sequence entropy of one (strategy, repetition) cell.

    Stable content hash: ``(base_seed, rep, crc32(strategy name))`` for
    strategies and ``(base_seed, rep, 0xBA5E)`` for the baseline rows --
    a pure function of the cell's identity, independent of run order
    and platform (CRC-32 is specified byte-exact, unlike
    Python's salted ``hash()``).  This is exactly the derivation the
    runner has always used, so resampling streams are unchanged.
    """
    if strategy in (ALL_NODES_CELL, ORACLE_CELL):
        return (base_seed, rep, BASELINE_TAG)
    return (base_seed, rep, zlib.crc32(strategy.encode("utf-8")))


@dataclass(frozen=True)
class EvalCell:
    """One unit of evaluation work: (scenario, strategy, repetition)."""

    scenario: str
    strategy: str        # a registry name, ALL_NODES_CELL or ORACLE_CELL
    rep: int


@dataclass
class CellResult:
    """Outcome of one cell, with its full per-iteration trace."""

    cell: EvalCell
    total: float                 # sum of iteration durations
    chosen: np.ndarray           # (iterations,) actions, int
    durations: np.ndarray        # (iterations,) resampled durations


def run_cell_trace(
    strategy, bank, iterations: int, rng: np.random.Generator, injector=None
) -> Tuple[float, np.ndarray, np.ndarray]:
    """The propose/resample/observe loop, returning the full trace.

    Single implementation shared by :func:`execute_cell` and
    :func:`repro.evaluate.runner.run_strategy_once`; the running
    ``total += y`` accumulation is the historical one, so totals are
    bit-identical everywhere.

    ``injector`` (a :class:`repro.faults.injector.FaultInjector`)
    perturbs each iteration: the platform announces its current state
    (strategies with an ``on_fault_event`` hook can react; the paper's
    raw strategies ignore it), proposals above the surviving-node count
    are degraded to the feasible maximum, and the resampled duration is
    scaled/shifted per the schedule.  Exactly one ``bank.resample`` draw
    happens per iteration with or without an injector, so the RNG stream
    -- and therefore the ``injector=None`` path -- is byte-identical to
    the historical loop.
    """
    total = 0.0
    chosen: List[int] = []
    durations: List[float] = []
    for t in range(iterations):
        if injector is not None:
            hook = getattr(strategy, "on_fault_event", None)
            if hook is not None:
                hook(injector.event_for(t))
        n = strategy.propose()
        if injector is None:
            y = bank.resample(n, rng)
        else:
            injection = injector.plan(t, n)
            y = injector.apply(injection, bank.resample(injection.effective_n, rng))
        strategy.observe(n, y)
        total += y
        chosen.append(n)
        durations.append(y)
    return total, np.asarray(chosen, dtype=int), np.asarray(durations)


def build_cell_strategy(cell: EvalCell, bank, base_seed: int = 0):
    """Instantiate the strategy of a cell.

    Baselines use ``seed=rep`` and strategies ``seed=rep + base_seed``
    (the historical asymmetry, preserved for bit-compatibility); the
    oracle's clairvoyant action is recomputed from the bank, which is
    deterministic.
    """
    space = bank.action_space()
    if cell.strategy == ALL_NODES_CELL:
        return AllNodesStrategy(space, seed=cell.rep)
    if cell.strategy == ORACLE_CELL:
        return OracleStrategy(
            space, seed=cell.rep, best_action=bank.best_action()
        )
    return make_strategy(cell.strategy, space, seed=cell.rep + base_seed)


def execute_cell(
    cell: EvalCell, bank, iterations: int, base_seed: int = 0, injector=None
) -> CellResult:
    """Run one cell start-to-finish."""
    rng = np.random.default_rng(
        derive_cell_seed(cell.strategy, cell.rep, base_seed)
    )
    strategy = build_cell_strategy(cell, bank, base_seed)
    tracer = get_tracer()
    # Span/event rows carry the strategy's display name (``All-nodes``,
    # not the ``__all-nodes__`` cell sentinel) so ``repro stats`` merges
    # them with the decision log; the sentinel stays in the cell id.
    with tracer.span("cell", scenario=cell.scenario,
                     strategy=strategy.name, rep=cell.rep):
        total, chosen, durations = run_cell_trace(
            strategy, bank, iterations, rng, injector=injector
        )
    if tracer.enabled:
        tracer.event(
            "cell",
            scenario=cell.scenario,
            strategy=strategy.name,
            rep=cell.rep,
            iterations=iterations,
            total=total,
        )
    return CellResult(
        cell=cell,
        total=total,
        chosen=chosen,
        durations=durations,
    )


# -- per-cell trace capture --------------------------------------------------------


def run_cell_captured(
    cell: EvalCell, bank, iterations: int, base_seed: int = 0, injector=None
) -> CellResult:
    """Execute one cell, forwarding its obs events to the active trace.

    Every traced cell runs under a private tracer with a fresh buffer and
    a fresh clock (ticks start at 0 in deterministic mode), so the
    captured byte stream depends only on the cell's identity -- not on
    which cells ran before it.  Captured events are annotated with the
    cell id and a worker attribution (the stable cell id in deterministic
    mode, the pid in wall mode) and then forwarded to the active tracer;
    its counters are added to the active tracer's.
    """
    parent = get_tracer()
    if not parent.enabled:
        return execute_cell(cell, bank, iterations, base_seed, injector)
    ticks = isinstance(parent.clock, TickClock)
    sink = MemorySink()
    tracer = Tracer(sink=sink, clock=TickClock() if ticks else WallClock())
    with scoped(tracer):
        result = execute_cell(cell, bank, iterations, base_seed, injector)
    # No tracer.close(): a per-cell summary record would only bloat the
    # merged trace.  The cell's counters (fault.*, from the injector and
    # Resilient(...)) join the active trace's summary instead.
    for name, value in tracer.counters.items():
        parent.count(name, value)
    cell_id = f"{cell.scenario}/{cell.strategy}/{cell.rep}"
    worker = cell_id if ticks else f"pid{os.getpid()}"
    for record in sink.records:
        record["cell_id"] = cell_id
        record["worker"] = worker
        parent.emit_raw(record)
    return result


def plan_cells(
    scenario_keys: Iterable[str],
    strategies: Sequence[str],
    reps: int,
    include_baselines: bool = True,
) -> List[EvalCell]:
    """The deterministic cell order of an evaluation.

    Scenarios sorted by key (as ``evaluate_scenarios`` iterates), then
    baselines, then strategies in caller order, repetitions ascending.
    Aggregation relies on this order, so it is part of the contract.
    """
    names = list(strategies)
    if include_baselines:
        names = [ALL_NODES_CELL, ORACLE_CELL] + names
    return [
        EvalCell(scenario=key, strategy=name, rep=rep)
        for key in sorted(scenario_keys)
        for name in names
        for rep in range(reps)
    ]


def stderr_progress(label: str) -> ProgressFn:
    """A ``ProgressFn`` printing ``label: done/total`` to stderr."""

    def report(done: int, total: int) -> None:
        print(f"\r  {label}: {done}/{total}", end="", file=sys.stderr,
              flush=True)
        if done == total:
            print(file=sys.stderr)

    return report


def run_cells(
    banks,
    cells: Sequence[EvalCell],
    iterations: int,
    base_seed: int = 0,
    progress: "ProgressFn | None" = None,
    injector=None,
) -> List[CellResult]:
    """Execute cells in order, returning their results in that order.

    ``injector`` applies one fault schedule to *every* cell: it is a
    stateless pure function of the cell-local iteration index, so each
    cell sees the same perturbations whatever ran before it.  Stateful
    banks such as ``DriftingBank`` keep their regime clock across cells.
    """
    cells = list(cells)
    total = len(cells)
    results: List[CellResult] = []
    for i, cell in enumerate(cells):
        results.append(run_cell_captured(
            cell, banks[cell.scenario], iterations, base_seed, injector,
        ))
        if progress is not None:
            progress(i + 1, total)
    return results
