"""Process-pool experiment harness: deterministic cell-level fan-out.

The Figure 6 protocol is a grid of independent *cells*: one cell is one
repetition of one strategy on one scenario bank (the paper: 16 scenarios
x ~10 strategies x 30 repetitions x 127 iterations).  Serially that grid
dominates the full-figure drivers' wall-clock; but every cell is
self-contained -- its randomness comes from a per-cell seed, its inputs
are a read-only measurement bank -- so cells fan out over a
``ProcessPoolExecutor`` and the results are **byte-identical** to the
serial path for any worker count:

* :func:`derive_cell_seed` derives the seed-sequence entropy of a cell
  from the strategy name and repetition index alone (a stable CRC-32
  content hash -- never ``hash()``, never worker/submission order).  It
  reproduces the historical serial derivation exactly, so ``workers=1``
  and the pre-harness code agree bit-for-bit; the scenario enters
  through the bank each cell resamples, which decorrelates scenarios
  without touching the seed stream.
* :func:`run_cells` submits cells in deterministic order with chunked
  scheduling and collects results *in input order* (``pool.map``), so
  aggregation downstream never observes completion order.
* :func:`rebuild_app` is the pickle-safe worker rebuild used by the
  sweep layer: workers receive only the (cheaply picklable) scenario and
  rebuild the cluster/application locally.

See DESIGN.md ("Parallel evaluation harness") for the seed-derivation
and cache-key contracts.
"""

from __future__ import annotations

import os
import sys
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import (
    NULL_TRACER,
    MemorySink,
    TickClock,
    Tracer,
    WallClock,
    get_tracer,
    scoped,
    set_tracer,
)
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
    a pure function of the cell's identity, independent of worker count,
    submission order and platform (CRC-32 is specified byte-exact, unlike
    Python's salted ``hash()``).  This is exactly the derivation the
    serial runner has always used, so resampling streams are unchanged.
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
    #: Obs events captured while the cell ran (None when tracing is off);
    #: merged into the parent trace at collection, in cell input order.
    events: Optional[List[dict]] = None


def run_cell_trace(
    strategy, bank, iterations: int, rng: np.random.Generator, injector=None
) -> Tuple[float, np.ndarray, np.ndarray]:
    """The propose/resample/observe loop, returning the full trace.

    Single implementation shared by the serial runner
    (:func:`repro.evaluate.runner.run_strategy_once` delegates here) and
    the pool workers; the running ``total += y`` accumulation is the
    historical one, so totals are bit-identical everywhere.

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
    """Instantiate the strategy of a cell exactly as the serial runner does.

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
    """Run one cell start-to-finish (also the pool worker body)."""
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


@dataclass(frozen=True)
class TraceConfig:
    """Picklable description of the parent's tracing mode for workers."""

    enabled: bool = False
    ticks: bool = False


def active_trace_config() -> TraceConfig:
    """Snapshot of the active tracer, shippable to pool initializers."""
    tracer = get_tracer()
    return TraceConfig(
        enabled=tracer.enabled,
        ticks=isinstance(tracer.clock, TickClock),
    )


def run_cell_captured(
    cell: EvalCell, bank, iterations: int, base_seed: int, cfg: TraceConfig,
    injector=None,
) -> CellResult:
    """Execute one cell, capturing its obs events under a private tracer.

    Every traced cell gets a fresh buffer and a fresh clock (ticks start
    at 0 in deterministic mode), so the captured byte stream depends only
    on the cell's identity -- not on the worker that ran it, the worker
    count, or which cells ran before it.  Captured events are annotated
    with the cell id and a worker attribution (the stable cell id in
    deterministic mode, the pid in wall mode) and returned on the result
    for in-order merging by :func:`run_cells`.
    """
    if not cfg.enabled:
        return execute_cell(cell, bank, iterations, base_seed, injector)
    sink = MemorySink()
    tracer = Tracer(
        sink=sink, clock=TickClock() if cfg.ticks else WallClock()
    )
    with scoped(tracer):
        result = execute_cell(cell, bank, iterations, base_seed, injector)
    # No tracer.close(): cells emit no registry counters, and a per-cell
    # summary record would only bloat the merged trace.
    cell_id = f"{cell.scenario}/{cell.strategy}/{cell.rep}"
    worker = cell_id if cfg.ticks else f"pid{os.getpid()}"
    for record in sink.records:
        record["cell_id"] = cell_id
        record["worker"] = worker
    result.events = sink.records
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


def default_chunksize(n_cells: int, workers: int) -> int:
    """Batch size for pool submission: ~4 chunks per worker, capped."""
    if n_cells <= 0:
        return 1
    return max(1, min(32, n_cells // (workers * 4) or 1))


# -- pool plumbing ---------------------------------------------------------------

#: Worker-process state installed by the pool initializer (banks are
#: pickled once per worker instead of once per cell).
_WORKER_STATE: Dict[str, object] = {}


def _pool_init(
    banks, iterations: int, base_seed: int,
    trace_cfg: TraceConfig = TraceConfig(),
    injector=None,
) -> None:
    _WORKER_STATE["banks"] = banks
    _WORKER_STATE["iterations"] = iterations
    _WORKER_STATE["base_seed"] = base_seed
    _WORKER_STATE["trace_cfg"] = trace_cfg
    _WORKER_STATE["injector"] = injector
    # A forked worker inherits the parent's active tracer (and its open
    # sink).  Workers must never write to it -- cell events are captured
    # per cell and merged by the parent -- so disable it outright.
    set_tracer(NULL_TRACER)


def _pool_run(cell: EvalCell) -> CellResult:
    banks = _WORKER_STATE["banks"]
    return run_cell_captured(
        cell,
        banks[cell.scenario],
        _WORKER_STATE["iterations"],
        _WORKER_STATE["base_seed"],
        _WORKER_STATE["trace_cfg"],
        _WORKER_STATE.get("injector"),
    )


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
    workers: int = 1,
    chunksize: int = 0,
    progress: "ProgressFn | None" = None,
    injector=None,
) -> List[CellResult]:
    """Execute cells, returning results in *input* order.

    ``workers=1`` runs in-process; ``workers>1`` fans out over a
    ``ProcessPoolExecutor`` with chunked scheduling.  Collection uses
    ``pool.map``, which yields in submission order regardless of
    completion order, so the output is byte-identical for any worker
    count.  Banks must be stateless across resamples (plain
    :class:`~repro.measure.bank.MeasurementBank`); stateful sources such
    as ``DriftingBank`` carry cross-cell regime clocks that a process
    pool cannot share, so they are rejected.

    ``injector`` applies one fault schedule to *every* cell: it is a
    stateless pure function of the cell-local iteration index, shipped
    once per worker through the pool initializer, so fault application
    is bit-identical for any worker count.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cells = list(cells)
    total = len(cells)
    trace_cfg = active_trace_config()
    results: List[CellResult] = []
    if workers == 1:
        for i, cell in enumerate(cells):
            results.append(run_cell_captured(
                cell, banks[cell.scenario], iterations, base_seed, trace_cfg,
                injector,
            ))
            if progress is not None:
                progress(i + 1, total)
        _merge_cell_events(results)
        return results

    for key in sorted({c.scenario for c in cells}):
        if hasattr(banks[key], "reset"):
            raise ValueError(
                f"bank {key!r} is stateful (has reset()); drifting banks "
                "share a regime clock across cells and only support "
                "workers=1"
            )
    parent_tracer = get_tracer()
    if parent_tracer.enabled:
        # Forked children duplicate the sink's userspace buffer; drain it
        # now so their exit-time flush cannot replay buffered lines.
        parent_tracer.sink.flush()
    chunksize = chunksize or default_chunksize(total, workers)
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_pool_init,
        initargs=(banks, iterations, base_seed, trace_cfg, injector),
    ) as pool:
        for i, result in enumerate(
            pool.map(_pool_run, cells, chunksize=chunksize)
        ):
            results.append(result)
            if progress is not None:
                progress(i + 1, total)
    _merge_cell_events(results)
    return results


def _merge_cell_events(results: Sequence[CellResult]) -> None:
    """Re-emit captured per-cell events into the parent trace.

    Results arrive in cell input order (``pool.map`` preserves it), so
    the merged stream -- and therefore the trace bytes under the
    deterministic clock -- is identical for every worker count.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return
    for result in results:
        for record in result.events or ():
            tracer.emit_raw(record)


# -- worker-side scenario rebuild -------------------------------------------------


def rebuild_app(scenario, tiles: int):
    """Pickle-safe rebuild of a scenario's application in a worker.

    Pool workers receive only the frozen :class:`Scenario` dataclass and
    the tile count -- both cheap to pickle -- and rebuild the cluster,
    workload and application locally (cheap against the simulation they
    are about to run).  The tile count is pinned through the scenario's
    ``REPRO_TILES_*`` environment variable so the worker resolves the
    same workload geometry as the parent, whatever its inherited
    environment.  Returns ``(app, cluster, workload)``.

    Shared by :func:`repro.measure.sweep._measure_action` and any future
    worker needing simulator access; unit-tested directly in
    ``tests/evaluate/test_parallel_harness.py``.
    """
    os.environ[f"REPRO_TILES_{scenario.workload}"] = str(tiles)
    from ..geostat import ExaGeoStat
    from ..workload import Workload

    workload = Workload.from_name(scenario.workload)
    cluster = scenario.build_cluster()
    return ExaGeoStat(cluster, workload), cluster, workload
