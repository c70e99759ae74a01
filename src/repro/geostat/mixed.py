"""Mixed-precision trade-off experiment (paper future work, Section VIII).

Couples the two sides of the trade-off the paper sketches:

* **accuracy** -- real numerics at small scale: the log-likelihood
  computed from the mixed-precision factor versus the full
  double-precision one;
* **performance** -- the simulated iteration makespan on a paper
  scenario, with single-precision tiles costing half the flops and half
  the transfer bytes.

The application "could dynamically adjust the number of diagonals that
use each precision"; :func:`mixed_precision_tradeoff` produces the
frontier such a controller would explore.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..linalg import TileStore, numeric_dot, numeric_log_det, numeric_solve
from ..linalg.precision import PrecisionPolicy, numeric_cholesky_mixed
from ..platform.scenarios import get_scenario
from ..runtime import FastSimulator
from ..workload import Workload
from .covariance import MaternParams, covariance_matrix, make_covariance
from .likelihood import log_likelihood, tile_size_for
from .phases import IterationPlan, build_iteration_graph
from .spatial import SpatialData, synthetic_dataset


@dataclass(frozen=True)
class TradeoffRow:
    """One point of the accuracy/performance frontier."""

    dp_bands: int
    dp_fraction: float
    loglik_error: float
    iteration_time: float


def mixed_log_likelihood(
    data: SpatialData, params: MaternParams, policy: PrecisionPolicy,
    nb: Optional[int] = None,
) -> float:
    """Log-likelihood evaluated through the mixed-precision pipeline."""
    n = data.n
    if nb is None:
        nb = tile_size_for(n, 8)
    sigma = covariance_matrix(data.locations, params)
    factor = numeric_cholesky_mixed(TileStore.from_matrix(sigma, nb), policy)
    u = numeric_solve(factor, data.observations)
    return -0.5 * (
        numeric_dot(u) + numeric_log_det(factor) + n * math.log(2.0 * math.pi)
    )


def mixed_precision_tradeoff(
    band_counts: Sequence[int],
    scenario_key: str = "c",
    n_fact: Optional[int] = None,
    n_points: int = 64,
    seed: int = 0,
) -> List[TradeoffRow]:
    """Accuracy/performance frontier over the number of DP diagonals.

    Accuracy comes from real numerics on a synthetic dataset of
    ``n_points`` observations; performance from the simulated iteration
    of ``scenario_key`` using ``n_fact`` factorization nodes.
    """
    params = MaternParams(variance=1.0, range_=0.15, nugget=1e-5)
    data = synthetic_dataset(n_points, make_covariance(params), seed=seed)
    full_ll = log_likelihood(data, params).log_likelihood

    scenario = get_scenario(scenario_key)
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    simulator = FastSimulator(cluster)
    if n_fact is None:
        n_fact = max(2, len(cluster) // 2)
    plan = IterationPlan(n_fact=n_fact, n_gen=len(cluster))

    numeric_t = n_points // tile_size_for(n_points, 8)
    rows: List[TradeoffRow] = []
    for bands in band_counts:
        if bands < 1:
            raise ValueError("band counts must be >= 1")
        policy = PrecisionPolicy(dp_bands=bands)
        # Accuracy (clamp the numeric band count to the numeric grid).
        numeric_policy = PrecisionPolicy(dp_bands=min(bands, numeric_t))
        ll = mixed_log_likelihood(data, params, numeric_policy)
        # Performance.
        graph = build_iteration_graph(
            cluster, workload, plan, precision_policy=policy
        )
        makespan = simulator.run(graph).makespan
        rows.append(
            TradeoffRow(
                dp_bands=bands,
                dp_fraction=policy.double_fraction(workload.t),
                loglik_error=abs(ll - full_ll),
                iteration_time=makespan,
            )
        )
    return rows
