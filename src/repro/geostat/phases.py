"""Task-graph builders for ExaGeoStat's five phases.

One application iteration submits (Section II):

i.   **generation** of the Sigma_theta tiles (``dcmg`` kernels, CPU-only,
     distributed over ``n_gen`` nodes weighted by CPU speed);
ii.  **factorization**: tile Cholesky over ``n_fact`` nodes -- the tiles
     are redistributed first, which StarPU performs asynchronously
     (modelled as lazy transfers by the simulator);
iii. **solve**, iv. **determinant**, v. **dot** -- few small tasks.

The phases overlap as far as the tile-level dependencies allow, exactly
like the paper's Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..distribution import factorization_distribution, generation_distribution
from ..linalg import (
    TileGrid,
    register_vector,
    submit_cholesky,
    submit_determinant,
    submit_dot,
    submit_solve,
)
from ..platform.cluster import Cluster
from ..runtime import DataRegistry, Placement, TaskGraph
from ..workload import Workload

PHASES = ("generation", "factorization", "solve", "determinant", "dot")


@dataclass(frozen=True)
class IterationPlan:
    """Node counts chosen for one iteration."""

    n_fact: int
    n_gen: int

    def __post_init__(self) -> None:
        if self.n_fact < 1 or self.n_gen < 1:
            raise ValueError("node counts must be >= 1")


def submit_generation(
    graph: TaskGraph, tiles: TileGrid, workload: Workload
) -> list:
    """Submit one ``dcmg`` generation task per lower tile."""
    flops = workload.generation_flops_per_tile
    t = tiles.t
    # Early columns are prioritized: the factorization consumes the matrix
    # panel by panel, so generating left columns first maximizes overlap.
    return [
        graph.submit(
            "dcmg", "generation", flops,
            writes=[tiles.handle(i, j)],
            placement=Placement.CPU_ONLY,
            priority=t - j, tag=(i, j),
        )
        for i, j in tiles.lower_tiles()
    ]


def build_iteration_parts(
    cluster: Cluster,
    workload: Workload,
    plan: IterationPlan,
    precision_policy=None,
):
    """Like :func:`build_iteration_graph`, but also return the data parts.

    Returns ``(graph, tiles, rhs, scratch)`` -- the tile grid, the solve
    right-hand-side handles and the reduction scratch handle.  The
    plan-batched sweep path (:mod:`repro.measure.batch`) uses these to
    re-home data for other ``(n_fact, n_gen)`` choices without
    resubmitting the graph.
    """
    n = len(cluster)
    if not (1 <= plan.n_fact <= n and 1 <= plan.n_gen <= n):
        raise ValueError(f"plan {plan} out of range for a {n}-node cluster")

    gen_dist = generation_distribution(cluster, plan.n_gen)
    fact_dist = factorization_distribution(cluster, plan.n_fact)

    graph = TaskGraph(DataRegistry())
    tiles = TileGrid(workload.t, workload.nb)
    tile_bytes_of = (
        (lambda i, j: precision_policy.tile_bytes(workload.nb, i, j))
        if precision_policy is not None
        else None
    )
    tiles.register(graph.registry, gen_dist, tile_bytes_of=tile_bytes_of)

    # Phase i: generation on the generation distribution.
    submit_generation(graph, tiles, workload)

    # Redistribute for the factorization (async in StarPU; lazy transfers
    # in the simulator).
    tiles.redistribute(graph.registry, fact_dist)

    # Phase ii: Cholesky.
    submit_cholesky(graph, tiles, policy=precision_policy)

    # Phases iii-v: solve / determinant / dot.
    rhs = register_vector(
        graph.registry, tiles, "z", lambda k: fact_dist(k, k)
    )
    scratch = graph.registry.register("acc", 16.0, home=cluster[0].index)
    submit_solve(graph, tiles, rhs)
    submit_determinant(graph, tiles, scratch)
    submit_dot(graph, rhs, workload.nb, scratch)

    return graph, tiles, rhs, scratch


def build_iteration_graph(
    cluster: Cluster,
    workload: Workload,
    plan: IterationPlan,
    precision_policy=None,
) -> TaskGraph:
    """Build the full five-phase task graph for one iteration.

    ``plan.n_fact`` / ``plan.n_gen`` select how many of the fastest nodes
    each phase uses.  ``precision_policy`` is an optional
    :class:`~repro.linalg.precision.PrecisionPolicy`: off-band tiles are
    stored in single precision (half the bytes) and their factorization
    kernels run at twice the rate -- the paper's mixed-precision future
    work.
    """
    return build_iteration_parts(
        cluster, workload, plan, precision_policy=precision_policy
    )[0]
