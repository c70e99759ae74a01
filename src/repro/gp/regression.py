"""Universal kriging: Gaussian-Process regression with trend.

Reimplements the subset of DiceKriging the paper uses: a GP prior
``f ~ GP(mu, alpha * R_theta)`` with trend ``mu(x) = F(x) gamma``,
observed through ``y = f(x) + eps``, ``eps ~ N(0, sigma_N^2)``.

Given observations ``(X, y)``:

* ``gamma_hat = (F' K^-1 F)^-1 F' K^-1 y``       (generalized least squares)
* ``mu(x*)   = f*' gamma_hat + k*' K^-1 (y - F gamma_hat)``
* ``s^2(x*)  = alpha - k*' K^-1 k* + u*' (F' K^-1 F)^-1 u*``,
  ``u* = f* - F' K^-1 k*``

with ``K = alpha R + sigma_N^2 I`` and ``k* = alpha R(X, x*)``.  The last
variance term accounts for trend-coefficient uncertainty (universal
kriging).  Hyper-parameters (alpha, theta) can be fixed (the paper's
GP-discontinuous sets theta = 1 and alpha to the sample variance to avoid
early overconfidence) or estimated by profile maximum likelihood (the
GP-UCB default, "estimated from the data with an ML approach").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.optimize import minimize

from .kernels import Exponential, Kernel, _distances
from .trend import ConstantTrend, TrendBasis

_JITTER = 1e-10
# What cho_factor/cho_solve wrap, minus their per-call checks (fit() checks).
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.empty(0),))


def _solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``K^-1 b`` from K's lower Cholesky factor (potrs fails only on shapes)."""
    return _POTRS(chol, b, lower=1)[0]


@dataclass
class GPFit:
    """Frozen state of a fitted GP (used by predict)."""

    x: np.ndarray
    y: np.ndarray
    alpha: float
    theta: float
    noise_var: float
    gamma: np.ndarray
    kernel: Kernel
    trend: TrendBasis
    _chol: np.ndarray               # lower Cholesky factor of K
    _resid_weights: np.ndarray      # K^-1 (y - F gamma)
    _fkf_inv: np.ndarray            # (F' K^-1 F)^-1
    _kinv_f: np.ndarray             # K^-1 F


class GaussianProcess:
    """Universal-kriging GP regression.

    Parameters
    ----------
    kernel:
        Correlation kernel; its ``theta`` is the initial/fixed length.
    trend:
        Trend basis (constant by default, as in plain GP-UCB).
    alpha:
        Process variance.  ``None`` estimates it (by MLE when
        ``optimize``, else the sample variance).
    noise_var:
        Observation-noise variance sigma_N^2.  ``None`` keeps a small
        default; callers usually pass the replicate-based estimate.
    optimize:
        When true, (alpha, theta) are fitted by profile maximum
        likelihood; when false they stay at their configured values.
    theta_bounds:
        Box constraints for theta during MLE.
    theta_starts:
        Optional MLE start values for theta.  A single warm start (e.g.
        the previous fit's theta) makes repeated refits much cheaper;
        defaults to a small multi-start over the data span.
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        trend: Optional[TrendBasis] = None,
        alpha: Optional[float] = None,
        noise_var: Optional[float] = None,
        optimize: bool = True,
        theta_bounds: Tuple[float, float] = (1e-2, 1e3),
        theta_starts: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.kernel = kernel if kernel is not None else Exponential(theta=1.0)
        self.trend = trend if trend is not None else ConstantTrend()
        self.alpha = alpha
        self.noise_var = noise_var
        self.optimize = optimize
        self.theta_bounds = theta_bounds
        self.theta_starts = theta_starts
        self.fit_: Optional[GPFit] = None

    # -- fitting ---------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Fit the GP to coordinates ``x`` ((n,) or (n, d)) and values ``y``."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2):
            raise ValueError("x must be 1-D or 2-D")
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.shape[0] != y.size:
            raise ValueError("x and y must have equal length")
        for name, values in (("x", x), ("y", y)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite (got NaN or inf)")
        if x.shape[0] < self.trend.n_functions:
            raise ValueError(f"need at least {self.trend.n_functions} observations "
                             f"for this trend (got {x.shape[0]})")

        noise = self.noise_var if self.noise_var is not None else 1e-6
        y_var = float(np.var(y))

        d = _distances(x, x)
        if self.optimize:
            alpha, theta = self._mle(x, y, d, noise, y_var)
        else:
            alpha = self.alpha if self.alpha is not None else max(y_var, 1e-12)
            theta = self.kernel.theta

        self.fit_ = self._assemble(x, y, d, alpha, theta, noise)
        return self

    def _cholesky(self, r: np.ndarray, alpha, noise) -> Tuple[np.ndarray, int]:
        """Lower Cholesky factor of ``K = alpha R + (noise + jitter) I``.

        Returns potrf's ``info`` with it: nonzero when K is not positive
        definite.  ``r`` is left untouched, so one R(theta) serves every
        alpha tried at that theta.
        """
        k = alpha * r
        # alpha * r is a fresh C-ordered array, so ravel() is a view of it.
        k.ravel()[:: k.shape[0] + 1] += noise + _JITTER * max(alpha, 1.0)
        # K is symmetric, so k.T is K in Fortran order: potrf factors in place.
        return _POTRF(k.T, lower=1, overwrite_a=1, clean=0)

    def _assemble(self, x, y, d, alpha, theta, noise) -> GPFit:
        chol, info = self._cholesky(self.kernel.correlation_at(d, theta), alpha, noise)
        if info != 0:
            raise np.linalg.LinAlgError(f"K is not positive definite (info {info})")
        f = self.trend.design_matrix(x)
        kinv_f = _solve(chol, f)
        fkf_inv = np.linalg.inv(f.T @ kinv_f + _JITTER * np.eye(f.shape[1]))
        gamma = fkf_inv @ (kinv_f.T @ y)
        resid = y - f @ gamma
        resid_weights = _solve(chol, resid)
        return GPFit(
            x=x, y=y, alpha=alpha, theta=theta, noise_var=noise,
            gamma=gamma, kernel=self.kernel.with_theta(theta), trend=self.trend,
            _chol=chol, _resid_weights=resid_weights,
            _fkf_inv=fkf_inv, _kinv_f=kinv_f,
        )

    def _mle(self, x, y, d, noise, y_var) -> Tuple[float, float]:
        """Profile MLE over (log alpha, log theta), multi-start."""
        # Everything independent of (alpha, theta) is computed once per fit.
        f = self.trend.design_matrix(x)
        jitter_p = _JITTER * np.eye(f.shape[1])
        scalar_gls = f.shape[1] == 1
        const = float(x.shape[0] * np.log(2.0 * np.pi))
        span = max(float(np.ptp(x, axis=0).max()), 1.0)
        alpha0 = max(y_var, 1e-8)
        lo, hi = self.theta_bounds
        correlation = self.kernel.correlation_at

        def objective(r, alpha):
            """Negative log marginal likelihood with GLS-profiled trend,
            at ``alpha`` and the theta that built ``r = R(theta)``."""
            chol, info = self._cholesky(r, alpha, noise)
            if info != 0:  # K not positive definite
                return 1e12
            kinv_f = _solve(chol, f)
            fkf = f.T @ kinv_f + jitter_p
            fky = kinv_f.T @ y
            if scalar_gls:
                # The 1x1 GLS step: np.linalg.solve's LU solve reduces to
                # this one division (tests/gp/test_mle_bits.py guards that)
                # and rejects exactly a zero pivot as singular.
                pivot = fkf[0, 0]
                if pivot == 0.0:
                    return 1e12
                gamma = fky / pivot
            else:
                try:
                    gamma = np.linalg.solve(fkf, fky)
                except np.linalg.LinAlgError:  # the GLS step is singular
                    return 1e12
            resid = y - f @ gamma
            quad = float(resid @ _solve(chol, resid))
            logdet = 2.0 * float(np.log(chol.diagonal()).sum())
            return 0.5 * (quad + logdet + const)

        bounds = [(np.log(1e-10), np.log(1e12)), (np.log(lo), np.log(hi))]
        upper = [b for _, b in bounds]

        def shifted(p, i):
            """``p`` moved 1e-8 along axis ``i`` (backward at the bound)."""
            x1 = p.copy()
            step = p[i] + 1e-8
            x1[i] = step if step <= upper[i] else p[i] - 1e-8
            return x1

        def value_and_grad(p):
            """Objective and its 2-point forward difference, step 1e-8.

            Exactly what L-BFGS-B's default ``approx_derivative`` computes:
            the same operations at the same points (a backward step where
            the forward one would pass the upper bound), so the optimizer
            takes the same path, minus scipy's per-call wrapper cost.
            scipy's other branches cannot trigger here: every bound
            interval is wider than the step (theta's is log(hi / lo), 11.5
            at the default bounds), and ``p + 1e-8 == p`` needs
            |p| >= 2**27 (about 1.3e8) while the log-bounds stay within 28.
            The alpha step leaves log theta's bits, and so R(theta), as
            they are: two R builds serve the three evaluations.
            """
            alpha, theta = np.exp(p)
            r = correlation(d, theta)
            f0 = objective(r, alpha)
            g = np.empty(2)
            x1 = shifted(p, 0)
            g[0] = (objective(r, np.exp(x1)[0]) - f0) / (x1[0] - p[0])
            x1 = shifted(p, 1)
            alpha, theta = np.exp(x1)
            g[1] = (objective(correlation(d, theta), alpha) - f0) / (x1[1] - p[1])
            return f0, g

        starts = self.theta_starts or (span / 4.0, span, self.kernel.theta)
        best = None
        for theta0 in starts:
            theta0 = float(np.clip(theta0, lo, hi))
            res = minimize(
                value_and_grad,
                x0=np.log([alpha0, theta0]),
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
            )
            if best is None or res.fun < best.fun:
                best = res
        alpha, theta = np.exp(best.x)
        return float(alpha), float(theta)

    # -- prediction -------------------------------------------------------------

    def predict(
        self, x_star: np.ndarray, include_noise: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Predictive mean and standard deviation at ``x_star``.

        ``include_noise`` adds sigma_N^2 to the variance (prediction of an
        *observation* rather than the latent function).
        """
        if self.fit_ is None:
            raise RuntimeError("fit() must be called before predict()")
        ft = self.fit_
        x_star = np.asarray(x_star, dtype=float)
        x_star = np.atleast_2d(x_star) if ft.x.ndim == 2 else x_star.reshape(-1)
        if not np.isfinite(x_star).all():
            raise ValueError("x_star must be finite (got NaN or inf)")

        k_star = ft.alpha * ft.kernel(ft.x, x_star)          # (n, m)
        f_star = ft.trend.design_matrix(x_star)              # (m, p)
        mean = f_star @ ft.gamma + k_star.T @ ft._resid_weights

        kinv_kstar = _solve(ft._chol, k_star)                # (n, m)
        var = ft.alpha - np.einsum("ij,ij->j", k_star, kinv_kstar)
        u = f_star.T - ft._kinv_f.T @ k_star                 # (p, m)
        var = var + np.einsum("pm,pq,qm->m", u, ft._fkf_inv, u)
        if include_noise:
            var = var + ft.noise_var
        return mean, np.sqrt(np.maximum(var, 0.0))

    # -- acquisition -------------------------------------------------------------

    def lower_confidence_bound(self, x_star: np.ndarray, beta: float) -> np.ndarray:
        """``mu(x) - sqrt(beta) * s(x)``: the GP-UCB acquisition for
        *minimization* (the paper's Eq. 2 written for durations)."""
        if beta < 0:
            raise ValueError("beta must be non-negative")
        mean, sd = self.predict(x_star)
        return mean - np.sqrt(beta) * sd
