"""Speed-weighted heterogeneous tile distributions.

Following the heterogeneous allocation literature the paper builds on
(Beaumont et al. [13], [14]) and the application-tailored distributions of
Nesi et al. [4], tiles are assigned to nodes proportionally to their
throughput while retaining a 2-D cyclic structure for communication
locality: :func:`column_slice_pattern` builds a square owner pattern from
balanced column slices, and tile ``(i, j)`` belongs to
``pattern[i mod P][j mod P]``.

Changing the number of nodes reshapes the pattern, which is precisely what
produces the paper's "small breaks related to the distribution"
(Section III).
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..platform.cluster import Cluster
from .base import TileDistribution, integer_shares


def _balanced_slices(weights: Sequence[float], n_slices: int) -> List[List[int]]:
    """Partition node indices into ``n_slices`` groups of balanced weight.

    Longest-processing-time greedy: nodes sorted by descending weight, each
    assigned to the currently lightest slice.
    """
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    slices: List[List[int]] = [[] for _ in range(n_slices)]
    totals = [0.0] * n_slices
    for i in order:
        s = min(range(n_slices), key=lambda k: (totals[k], k))
        slices[s].append(i)
        totals[s] += weights[i]
    return [s for s in slices if s]


def column_slice_pattern(
    weights: Sequence[float], period: int = 0
) -> List[List[int]]:
    """Beaumont-style column-slice owner pattern.

    The classical heterogeneous 2-D partitioning ([13], [14]): nodes are
    grouped into ~sqrt(n) column slices of balanced weight; each slice
    receives a number of pattern columns proportional to its weight, and
    its pattern rows are split among its nodes proportionally to their
    weights.  Applied cyclically over the tile grid, every panel tile is
    consumed by O(sqrt(n)) nodes -- the optimal communication scaling --
    while per-node tile counts stay proportional to speed.
    """
    if not weights or any(w <= 0 for w in weights):
        raise ValueError("weights must be non-empty and positive")
    n = len(weights)
    n_slices = max(1, round(math.sqrt(n)))
    slices = _balanced_slices(weights, n_slices)
    if period <= 0:
        largest = max(len(s) for s in slices)
        # Fine enough that one pattern cell is at most the smallest node's
        # fair share, so slow nodes are neither dropped nor inflated.
        skew = math.ceil(math.sqrt(sum(weights) / min(weights)))
        period = min(64, max(8, 2 * len(slices), 2 * largest, skew))

    slice_weights = [sum(weights[i] for i in s) for s in slices]
    cols_per_slice = integer_shares(slice_weights, period)

    pattern = [[0] * period for _ in range(period)]
    col = 0
    for s, ncols in zip(slices, cols_per_slice):
        if ncols == 0:
            continue
        # Cell-granular split inside the slice (row-major): nodes whose
        # fair share is around one cell receive about one cell, neither
        # inflated to a full row nor rounded away.
        node_weights = [weights[i] for i in s]
        cells = integer_shares(node_weights, period * ncols, ensure_min=False)
        owners = [node for node, c in zip(s, cells) for _ in range(c)]
        k = 0
        for r in range(period):
            for c in range(col, col + ncols):
                pattern[r][c] = owners[k]
                k += 1
        col += ncols
    return pattern


def column_slice_distribution(
    weights: Sequence[float], period: int = 0
) -> TileDistribution:
    """Cyclic tile distribution from a column-slice pattern."""
    pattern = column_slice_pattern(weights, period)
    p = len(pattern)

    def owner(i: int, j: int) -> int:
        return pattern[i % p][j % p]

    return owner


def factorization_distribution(
    cluster: Cluster, n_fact: int
) -> TileDistribution:
    """Distribution of Sigma tiles for the factorization phase.

    Uses the ``n_fact`` fastest nodes, weighted by their full (CPU + GPU)
    throughput -- the resource mix the Cholesky kernels exploit.
    """
    weights = [node.total_gflops for node in cluster.subset(n_fact)]
    return column_slice_distribution(weights)


def generation_distribution(
    cluster: Cluster, n_gen: int
) -> TileDistribution:
    """Distribution of Sigma tiles for the generation phase.

    Uses the ``n_gen`` fastest nodes weighted by CPU throughput only,
    since the ``dcmg`` kernel is CPU-bound (Section II).
    """
    weights = [node.generation_gflops for node in cluster.subset(n_gen)]
    return column_slice_distribution(weights)
