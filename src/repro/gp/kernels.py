"""Covariance (correlation) kernels for the Gaussian-Process surrogate.

The paper's Eq. 3 parameterizes the GP covariance as
``Sigma(x, x') = alpha * exp(-||x - x'|| / theta)`` -- an exponential
kernel with scale ``alpha`` and length ``theta``.  We implement the
correlation part here (``alpha`` lives in the regression); a Gaussian
alternative is provided for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _distances(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between coordinate sets.

    Accepts 1-D arrays (scalar coordinates) or 2-D arrays of shape
    ``(n, d)`` -- the latter supports the paper's future-work extension to
    the 2-D (generation, factorization) space.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.ndim <= 1 and x2.ndim <= 1:
        x1 = x1.reshape(-1)
        x2 = x2.reshape(-1)
        return np.abs(x1[:, None] - x2[None, :])
    x1 = np.atleast_2d(x1)
    x2 = np.atleast_2d(x2)
    if x1.shape[1] != x2.shape[1]:
        raise ValueError("coordinate dimensionalities differ")
    diff = x1[:, None, :] - x2[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


@dataclass(frozen=True)
class Kernel:
    """Base class: stationary 1-D correlation kernel with length ``theta``."""

    theta: float

    def __post_init__(self) -> None:
        if self.theta <= 0:
            raise ValueError("theta must be positive")

    def correlation(self, d: np.ndarray) -> np.ndarray:
        """Correlation at distances ``d``."""
        return self.correlation_at(np.asarray(d, dtype=float), self.theta)

    @staticmethod
    def correlation_at(d: np.ndarray, theta: float) -> np.ndarray:
        """Correlation at float distances ``d`` for length ``theta``.

        Implemented by subclasses.  The likelihood fit builds R(theta)
        here at every trial theta without constructing a kernel.
        """
        raise NotImplementedError

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Correlation matrix between coordinate sets ``x1`` and ``x2``."""
        return self.correlation(_distances(x1, x2))

    def with_theta(self, theta: float) -> "Kernel":
        """Same kernel family with a different length scale."""
        return type(self)(theta=theta)


@dataclass(frozen=True)
class Exponential(Kernel):
    """``exp(-d / theta)`` -- the paper's kernel (Eq. 3)."""

    @staticmethod
    def correlation_at(d: np.ndarray, theta: float) -> np.ndarray:
        """``exp(-d / theta)``."""
        # d / -theta is -d / theta bit for bit, without the negated copy of d.
        return np.exp(d / -theta)


@dataclass(frozen=True)
class Gaussian(Kernel):
    """``exp(-(d / theta)^2)`` -- very smooth alternative."""

    @staticmethod
    def correlation_at(d: np.ndarray, theta: float) -> np.ndarray:
        """``exp(-(d / theta)^2)``."""
        s = d / theta
        return np.exp(-(s**2))
