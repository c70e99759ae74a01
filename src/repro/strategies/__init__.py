"""Exploration strategies for choosing the number of factorization nodes."""

from .bandits import UCBStrategy, UCBStructStrategy
from .base import ActionSpace, AllNodesStrategy, OracleStrategy, Strategy
from .brent import BrentStrategy, brent_minimizer
from .gp_2d import GP2DStrategy
from .gp_discontinuous import GPDiscontinuousStrategy
from .gp_ucb import GPUCBStrategy, beta_t
from .naive import DichotomyStrategy, RightLeftStrategy
from .nonstationary import WindowedGPDiscontinuousStrategy
from .stochastic import (
    SimulatedAnnealingStrategy,
    StochasticApproximationStrategy,
)
from .registry import (
    STRATEGY_GROUPS,
    STRATEGY_ORDER,
    StrategyFactory,
    make_strategy,
    registered_names,
    strategy_names,
)

__all__ = [
    "ActionSpace",
    "AllNodesStrategy",
    "BrentStrategy",
    "DichotomyStrategy",
    "GP2DStrategy",
    "GPDiscontinuousStrategy",
    "GPUCBStrategy",
    "OracleStrategy",
    "RightLeftStrategy",
    "SimulatedAnnealingStrategy",
    "StochasticApproximationStrategy",
    "STRATEGY_GROUPS",
    "STRATEGY_ORDER",
    "Strategy",
    "StrategyFactory",
    "UCBStrategy",
    "UCBStructStrategy",
    "WindowedGPDiscontinuousStrategy",
    "beta_t",
    "brent_minimizer",
    "make_strategy",
    "registered_names",
    "strategy_names",
]
