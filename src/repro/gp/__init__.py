"""Gaussian-Process surrogate modelling (DiceKriging-like, from scratch)."""

from .kernels import Exponential, Gaussian, Kernel
from .noise import estimate_noise_variance, group_observations
from .regression import GaussianProcess, GPFit
from .trend import (
    ConstantTrend,
    GroupDummyTrend,
    Linear2DTrend,
    LinearTrend,
    TrendBasis,
)

__all__ = [
    "ConstantTrend",
    "Exponential",
    "GPFit",
    "Gaussian",
    "GaussianProcess",
    "GroupDummyTrend",
    "Kernel",
    "Linear2DTrend",
    "LinearTrend",
    "TrendBasis",
    "estimate_noise_variance",
    "group_observations",
]
