"""Data distributions over heterogeneous nodes + the LP lower bound."""

from .base import TileDistribution, integer_shares, tile_counts
from .heterogeneous import (
    column_slice_distribution,
    column_slice_pattern,
    factorization_distribution,
    generation_distribution,
)
from .lp_bound import (
    FACTORIZATION_KERNELS,
    LPBoundCalculator,
    LPResult,
    lp_task_allocation,
    node_kernel_rate,
)

__all__ = [
    "FACTORIZATION_KERNELS",
    "LPBoundCalculator",
    "LPResult",
    "TileDistribution",
    "column_slice_distribution",
    "column_slice_pattern",
    "factorization_distribution",
    "generation_distribution",
    "integer_shares",
    "lp_task_allocation",
    "node_kernel_rate",
    "tile_counts",
]
