"""Configuration sweeps: building measurement banks from the simulator.

``sweep_scenario`` simulates every allowed factorization node count of a
scenario once (deterministic, like StarPU-SimGrid) and augments each
duration with the scenario's noise model -- the paper's exact procedure
(Section V).  ``cached_bank`` persists banks under
:func:`repro.config.cache_dir` so the expensive sweeps run once.

``sweep_2d`` varies the generation *and* factorization node counts for
the Figure 8 heatmap.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # import would cycle through repro.evaluate at runtime
    from ..evaluate.cache import DurationCache

from .. import config
from ..distribution import LPBoundCalculator
from ..geostat import IterationPlan
from ..platform.scenarios import Scenario
from ..workload import Workload
from .bank import MeasurementBank
from .batch import ScenarioBatch
from .noisemodel import for_mode

#: Bump when the simulator/calibration changes to invalidate cached banks.
MODEL_VERSION = 4


def scenario_actions(scenario: Scenario, workload: Optional[Workload] = None):
    """Allowed node counts: memory-feasible, at least 2, up to N."""
    workload = workload or Workload.from_name(scenario.workload)
    cluster = scenario.build_cluster()
    lo = max(2, cluster.min_nodes_for(workload.matrix_bytes))
    return tuple(range(lo, len(cluster) + 1))


def _cache_probe(cache, scenario, tiles: int, n: int, n_total: int,
                 include_rigid: bool):
    """Cached ``(duration, rigid)`` of one configuration, or None on miss.

    The flexible duration is the plan ``(n_fact=n, n_gen=N)`` and the
    rigid one ``(n_fact=n, n_gen=n)`` -- both keyed through
    :func:`repro.evaluate.cache.simulation_fingerprint`, so the two sweep
    variants share entries.
    """
    from ..evaluate.cache import simulation_fingerprint as key

    duration = cache.get(key(scenario, tiles, n, n_total))
    if duration is None:
        return None
    if not include_rigid:
        return duration, None
    rigid = cache.get(key(scenario, tiles, n, n))
    if rigid is None:
        return None
    return duration, rigid


def _cache_store(cache, scenario, tiles: int, n: int, n_total: int,
                 duration: float, rigid) -> None:
    """Memoize one configuration's simulated durations."""
    from ..evaluate.cache import simulation_fingerprint as key

    cache.put(key(scenario, tiles, n, n_total), duration)
    if rigid is not None:
        cache.put(key(scenario, tiles, n, n), rigid)


def sweep_scenario(
    scenario: Scenario,
    actions: Optional[Sequence[int]] = None,
    augment: int = config.AUGMENT_SAMPLES,
    seed: int = 12345,
    include_rigid: bool = False,
    progress: bool = False,
    cache: Optional["DurationCache"] = None,
) -> MeasurementBank:
    """Build the measurement bank of a scenario.

    Parameters
    ----------
    actions:
        Node counts to sweep; defaults to the full allowed range.
    augment:
        Noisy samples per configuration (paper: 30).
    include_rigid:
        Also sweep the rigid ``n_gen = n_fact`` configuration (the yellow
        line of Figure 5).
    cache:
        Optional :class:`repro.evaluate.cache.DurationCache`.  Simulated
        durations are served from it on a content-key hit and memoized
        after a miss; a warm cache skips the simulations entirely and
        yields a bit-identical bank (the noise stream below is drawn in
        action order either way).
    """
    workload = Workload.from_name(scenario.workload)
    cluster = scenario.build_cluster()
    lp_calc = LPBoundCalculator(cluster, workload)
    noise = for_mode(scenario.mode)
    rng = np.random.default_rng(seed)

    if actions is None:
        actions = scenario_actions(scenario, workload)
    actions = tuple(int(a) for a in actions)
    n_total = len(cluster)

    results: Dict[int, tuple] = {}
    pending = list(actions)
    if cache is not None:
        pending = []
        for n in actions:
            hit = _cache_probe(
                cache, scenario, workload.t, n, n_total, include_rigid
            )
            if hit is None:
                pending.append(n)
            else:
                results[n] = hit
    if pending:
        # Plan-batched one-pass sweep: the graph build + template compile
        # are shared across every pending configuration (see
        # repro.measure.batch).  The rigid (N, N) plan is the flexible
        # one at n = N, so the batch's memo serves it.
        app = ScenarioBatch(cluster, workload)
        for i, n in enumerate(pending):
            duration = app.measure(n, n_total)
            rig = app.measure(n, n) if include_rigid else None
            results[n] = (duration, rig)
            if progress:
                print(
                    f"\r  sweep {scenario.full_label}: {i + 1}/{len(pending)}",
                    end="", file=sys.stderr, flush=True,
                )
    if cache is not None:
        for n in pending:
            duration, rig = results[n]
            _cache_store(cache, scenario, workload.t, n, n_total, duration, rig)
    if progress and pending:
        print(file=sys.stderr)

    samples: Dict[int, np.ndarray] = {}
    lp: Dict[int, float] = {}
    true_means: Dict[int, float] = {}
    rigid: Dict[int, float] = {}
    for n in actions:  # noise drawn in action order, cache hit or miss
        duration, rig = results[n]
        samples[n] = noise.augment(duration, augment, rng)
        lp[n] = lp_calc.iteration(n)
        true_means[n] = duration
        if include_rigid and rig is not None:
            rigid[n] = rig

    return MeasurementBank(
        label=scenario.full_label,
        actions=actions,
        samples=samples,
        lp=lp,
        group_boundaries=cluster.group_boundaries,
        true_means=true_means,
        rigid=rigid,
    )


def _cache_path(scenario: Scenario, augment: int, seed: int, rigid: bool) -> Path:
    workload = Workload.from_name(scenario.workload)
    name = (
        f"bank_v{MODEL_VERSION}_{scenario.key}_t{workload.t}"
        f"_a{augment}_s{seed}{'_r' if rigid else ''}.json"
    )
    return config.cache_dir() / name


def cached_bank(
    scenario: Scenario,
    augment: int = config.AUGMENT_SAMPLES,
    seed: int = 12345,
    include_rigid: bool = False,
    progress: bool = False,
    cache: Optional["DurationCache"] = None,
) -> MeasurementBank:
    """Load the scenario's bank from the cache, building it if needed.

    ``cache`` is a finer-grained duration memo consulted only when the
    whole-bank JSON is absent (see :func:`sweep_scenario`).  An
    unreadable bank file (truncated, or valid JSON of another shape)
    counts as absent, with one warning on stderr: the bank is swept
    again and the file rewritten atomically.
    """
    path = _cache_path(scenario, augment, seed, include_rigid)
    if path.exists():
        try:
            return MeasurementBank.load(path)
        except ValueError:
            print(f"warning: {path}: rebuilding the unreadable cached "
                  "bank (interrupted write?)", file=sys.stderr)
    bank = sweep_scenario(
        scenario,
        augment=augment,
        seed=seed,
        include_rigid=include_rigid,
        progress=progress,
        cache=cache,
    )
    bank.save(path)
    return bank


def sweep_phases(
    scenario: Scenario,
    actions: Optional[Sequence[int]] = None,
    progress: bool = False,
) -> Dict[int, Dict[str, float]]:
    """Per-phase spans for each n_fact (Figure 2's gen/fact bars).

    Returns ``{n: {phase: wall-clock span seconds, ..., "makespan": s}}``.
    """
    workload = Workload.from_name(scenario.workload)
    cluster = scenario.build_cluster()
    app = ScenarioBatch(cluster, workload)
    if actions is None:
        actions = scenario_actions(scenario, workload)
    out: Dict[int, Dict[str, float]] = {}
    n_total = len(cluster)
    for i, n in enumerate(actions):
        result = app.simulate(IterationPlan(n_fact=int(n), n_gen=n_total))
        spans = {p: e - s for p, (s, e) in result.phase_spans.items()}
        spans["makespan"] = result.makespan
        out[int(n)] = spans
        if progress:
            print(
                f"\r  phase sweep {scenario.key}: {i + 1}/{len(actions)}",
                end="", file=sys.stderr, flush=True,
            )
    if progress:
        print(file=sys.stderr)
    return out


def sweep_2d(
    scenario: Scenario,
    gen_counts: Optional[Sequence[int]] = None,
    fact_counts: Optional[Sequence[int]] = None,
    progress: bool = False,
) -> Tuple[np.ndarray, Sequence[int], Sequence[int]]:
    """Iteration duration over (n_gen, n_fact) -- the Figure 8 heatmap.

    Returns ``(durations, gen_counts, fact_counts)`` with durations of
    shape (len(gen_counts), len(fact_counts)).
    """
    workload = Workload.from_name(scenario.workload)
    cluster = scenario.build_cluster()
    app = ScenarioBatch(cluster, workload)
    allowed = scenario_actions(scenario, workload)
    if gen_counts is None:
        gen_counts = allowed
    if fact_counts is None:
        fact_counts = allowed
    out = np.empty((len(gen_counts), len(fact_counts)))
    for gi, n_gen in enumerate(gen_counts):
        for fi, n_fact in enumerate(fact_counts):
            out[gi, fi] = app.measure(int(n_fact), int(n_gen))
        if progress:
            print(
                f"\r  2d sweep {scenario.key}: row {gi + 1}/{len(gen_counts)}",
                end="", file=sys.stderr, flush=True,
            )
    if progress:
        print(file=sys.stderr)
    return out, list(gen_counts), list(fact_counts)
