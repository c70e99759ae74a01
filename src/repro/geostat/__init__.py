"""ExaGeoStat: the multi-phase task-based geostatistics application."""

from .application import ExaGeoStat, IterationRecord, RunResult
from .covariance import (
    MaternParams,
    covariance_matrix,
    make_covariance,
    matern_correlation,
)
from .likelihood import (
    LikelihoodBreakdown,
    direct_log_likelihood,
    golden_section_range_search,
    log_likelihood,
    tile_size_for,
)
from .mixed import TradeoffRow, mixed_log_likelihood, mixed_precision_tradeoff
from .phases import PHASES, IterationPlan, build_iteration_graph, submit_generation
from .spatial import SpatialData, jittered_grid, synthetic_dataset

__all__ = [
    "ExaGeoStat",
    "IterationPlan",
    "IterationRecord",
    "LikelihoodBreakdown",
    "MaternParams",
    "PHASES",
    "RunResult",
    "SpatialData",
    "TradeoffRow",
    "build_iteration_graph",
    "covariance_matrix",
    "direct_log_likelihood",
    "golden_section_range_search",
    "jittered_grid",
    "log_likelihood",
    "make_covariance",
    "matern_correlation",
    "mixed_log_likelihood",
    "mixed_precision_tradeoff",
    "submit_generation",
    "synthetic_dataset",
    "tile_size_for",
]
