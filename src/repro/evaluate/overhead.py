"""Strategy computation-overhead measurement (Figure 7).

The paper runs GP-discontinuous *online* inside ExaGeoStat on scenario
(b) G5K 2L-6M-6S, ten repetitions, and reports the wall-clock overhead of
the strategy per iteration: the first iteration is longer (setup), the
next four are cheap (no GP computation during the initial design), and
from the sixth iteration on the kriging fit gives a near-constant cost,
negligible against the 10-30 s iterations.

Overheads come from the strategies' own per-iteration timers
(``Strategy.overheads``, the ``propose()`` + ``observe()`` elapsed time
recorded by :mod:`repro.strategies.base`), so this module no longer
keeps its own ad-hoc stopwatch and the decision log in an obs trace
reports exactly the numbers aggregated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..distribution import LPBoundCalculator
from ..geostat import ExaGeoStat
from ..measure.noisemodel import for_mode
from ..platform.scenarios import Scenario, get_scenario
from ..strategies import ActionSpace, GPDiscontinuousStrategy
from ..workload import Workload


def strategy_space_for(
    scenario: Scenario, workload: Optional[Workload] = None
) -> ActionSpace:
    """Action space of a scenario with its LP bound attached."""
    workload = workload or Workload.from_name(scenario.workload)
    cluster = scenario.build_cluster()
    lo = max(2, cluster.min_nodes_for(workload.matrix_bytes))
    lp = LPBoundCalculator(cluster, workload)
    return ActionSpace.from_cluster(cluster, lo=lo, lp_bound=lp)


@dataclass
class OverheadResult:
    """Per-iteration strategy overhead across repetitions."""

    per_iteration: np.ndarray   # shape (reps, iterations), seconds
    iteration_durations: np.ndarray

    @property
    def mean_per_iteration(self) -> np.ndarray:
        """Mean overhead of each iteration index (the Figure 7 points)."""
        return self.per_iteration.mean(axis=0)

    @property
    def steady_state_mean(self) -> float:
        """Mean overhead once the GP fitting kicks in (iteration >= 6)."""
        return float(self.per_iteration[:, 5:].mean())

    @property
    def relative_overhead(self) -> float:
        """Total overhead / total iteration time (should be tiny)."""
        return float(self.per_iteration.sum() / self.iteration_durations.sum())


def measure_overhead(
    scenario_key: str = "b",
    reps: int = 10,
    iterations: int = 30,
    seed: int = 0,
) -> OverheadResult:
    """Run GP-discontinuous online and time its per-iteration cost."""
    scenario = get_scenario(scenario_key)
    workload = Workload.from_name(scenario.workload)
    cluster = scenario.build_cluster()
    space = strategy_space_for(scenario, workload)
    noise = for_mode(scenario.mode)

    # One application for every repetition, so each node plan is
    # simulated once; each repetition re-seeds the noise stream.
    app = ExaGeoStat(cluster, workload, noise=noise.sample)
    overheads: List[List[float]] = []
    durations: List[List[float]] = []
    for rep in range(reps):
        app.rng = np.random.default_rng(seed + rep)
        strategy = GPDiscontinuousStrategy(space, seed=seed + rep)
        result = app.run(strategy, iterations)
        overheads.append(list(strategy.overheads))
        durations.append([r.duration for r in result.records])
    return OverheadResult(
        per_iteration=np.asarray(overheads),
        iteration_durations=np.asarray(durations),
    )
