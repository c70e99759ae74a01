"""Tile linear algebra: the Chameleon-like substrate.

Provides the tile Cholesky factorization (task graph + real numerics) and
the solve/determinant/dot phases that complete ExaGeoStat's per-iteration
pipeline.
"""

from . import kernels
from .cholesky import numeric_cholesky, submit_cholesky
from .precision import PrecisionPolicy, numeric_cholesky_mixed, quantize_fp32
from .solve import (
    numeric_dot,
    numeric_log_det,
    numeric_solve,
    register_vector,
    submit_determinant,
    submit_dot,
    submit_solve,
)
from .tiles import TileDistribution, TileGrid, TileStore

__all__ = [
    "PrecisionPolicy",
    "TileDistribution",
    "TileGrid",
    "TileStore",
    "kernels",
    "numeric_cholesky",
    "numeric_cholesky_mixed",
    "numeric_dot",
    "numeric_log_det",
    "numeric_solve",
    "quantize_fp32",
    "register_vector",
    "submit_cholesky",
    "submit_determinant",
    "submit_dot",
    "submit_solve",
]
