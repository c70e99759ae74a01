"""Tests for universal kriging (exact interpolation, coverage, trends)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp import (
    ConstantTrend,
    Exponential,
    GaussianProcess,
    GroupDummyTrend,
    LinearTrend,
    TrendBasis,
)
from repro.gp.kernels import _distances


class TestInterpolation:
    def test_noise_free_interpolates(self):
        """With negligible nugget the GP mean passes through the data."""
        x = np.array([0.0, 1.0, 2.5, 4.0])
        y = np.sin(x)
        gp = GaussianProcess(noise_var=1e-12, optimize=False,
                             kernel=Exponential(theta=1.0), alpha=1.0)
        gp.fit(x, y)
        mean, sd = gp.predict(x)
        assert np.allclose(mean, y, atol=1e-4)
        assert np.all(sd < 1e-2)

    def test_uncertainty_grows_away_from_data(self):
        x = np.array([0.0, 1.0])
        gp = GaussianProcess(noise_var=1e-10, optimize=False, alpha=1.0)
        gp.fit(x, np.array([0.0, 1.0]))
        _, sd_near = gp.predict(np.array([0.5]))
        _, sd_far = gp.predict(np.array([10.0]))
        assert sd_far > sd_near

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_property_interpolation_random_points(self, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0, 10, size=6))
        # Ensure separation so the kernel matrix stays well conditioned.
        x = x + np.arange(6) * 0.5
        y = rng.standard_normal(6)
        gp = GaussianProcess(noise_var=1e-12, optimize=False, alpha=1.0)
        gp.fit(x, y)
        mean, _ = gp.predict(x)
        assert np.allclose(mean, y, atol=1e-3)


class TestFigure3CosExample:
    """The paper's Figure 3: GP fit over cos with 8 measurements."""

    def setup_method(self):
        rng = np.random.default_rng(42)
        self.x = np.sort(rng.uniform(0, 4 * np.pi, size=8))
        self.y = np.cos(self.x)
        self.grid = np.linspace(0, 4 * np.pi, 200)

    def test_mean_close_near_measurements(self):
        gp = GaussianProcess(noise_var=1e-8, optimize=True).fit(self.x, self.y)
        mean, _ = gp.predict(self.x)
        assert np.allclose(mean, self.y, atol=1e-2)

    def test_95ci_covers_truth_mostly(self):
        gp = GaussianProcess(noise_var=1e-8, optimize=True).fit(self.x, self.y)
        mean, sd = gp.predict(self.grid)
        truth = np.cos(self.grid)
        inside = np.abs(truth - mean) <= 1.96 * sd + 1e-9
        assert inside.mean() > 0.85


class TestTrends:
    def test_linear_trend_recovers_line(self):
        x = np.arange(1.0, 11.0)
        y = 3.0 + 0.5 * x
        gp = GaussianProcess(
            trend=LinearTrend(), noise_var=1e-10, optimize=False,
            alpha=1e-6, kernel=Exponential(theta=1.0),
        ).fit(x, y)
        assert gp.fit_.gamma == pytest.approx([3.0, 0.5], abs=1e-3)
        mean, _ = gp.predict(np.array([20.0]))
        assert mean[0] == pytest.approx(13.0, abs=0.5)

    def test_dummy_trend_captures_step(self):
        """A step function at a group boundary is captured by the dummy,
        which a plain linear trend extrapolates wrongly."""
        x = np.arange(1.0, 15.0)
        y = np.where(x <= 8, 10.0, 16.0)  # step of +6 at the boundary
        trend = GroupDummyTrend(boundaries=(8, 14))
        gp = GaussianProcess(
            trend=trend, noise_var=1e-10, optimize=False,
            alpha=1e-6, kernel=Exponential(theta=1.0),
        ).fit(x, y)
        # Step coefficient recovered.
        assert gp.fit_.gamma[-1] == pytest.approx(6.0, abs=0.1)

    def test_mle_estimates_reasonable_theta(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 10, 30)
        y = np.sin(x) + rng.normal(0, 0.01, size=30)
        gp = GaussianProcess(noise_var=1e-4, optimize=True).fit(x, y)
        assert 0.05 < gp.fit_.theta < 100.0
        assert gp.fit_.alpha > 0


class TestValidationAndAcquisition:
    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.array([1.0]))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.array([1.0, 2.0]), np.array([1.0]))

    def test_too_few_points_for_trend(self):
        with pytest.raises(ValueError):
            GaussianProcess(trend=LinearTrend()).fit(
                np.array([1.0]), np.array([1.0])
            )

    def test_lcb_below_mean(self):
        x = np.array([1.0, 2.0, 3.0, 6.0])
        y = np.array([5.0, 4.0, 4.5, 6.0])
        gp = GaussianProcess(noise_var=0.01, optimize=False, alpha=1.0).fit(x, y)
        grid = np.linspace(1, 6, 20)
        mean, _ = gp.predict(grid)
        lcb = gp.lower_confidence_bound(grid, beta=4.0)
        assert np.all(lcb <= mean + 1e-12)

    def test_lcb_beta_zero_is_mean(self):
        x = np.array([1.0, 2.0, 4.0])
        y = np.array([1.0, 0.5, 2.0])
        gp = GaussianProcess(noise_var=0.01, optimize=False, alpha=1.0).fit(x, y)
        grid = np.array([1.5, 3.0])
        mean, _ = gp.predict(grid)
        assert np.allclose(gp.lower_confidence_bound(grid, 0.0), mean)

    def test_negative_beta_rejected(self):
        gp = GaussianProcess(noise_var=0.01, optimize=False, alpha=1.0)
        gp.fit(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            gp.lower_confidence_bound(np.array([1.5]), -1.0)

    def test_include_noise_widens_sd(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([1.0, 2.0, 1.5])
        gp = GaussianProcess(noise_var=0.5, optimize=False, alpha=1.0).fit(x, y)
        _, sd_latent = gp.predict(np.array([2.5]))
        _, sd_obs = gp.predict(np.array([2.5]), include_noise=True)
        assert sd_obs > sd_latent


class TestFailurePaths:
    @pytest.mark.parametrize("optimize", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["x", "y"])
    def test_non_finite_input_rejected_up_front(self, name, bad, optimize):
        data = {"x": np.arange(1.0, 7.0), "y": np.array([3.0, 2, 1, 2, 3, 4])}
        data[name][2] = bad
        gp = GaussianProcess(noise_var=0.01, optimize=optimize, alpha=1.0)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            gp.fit(data["x"], data["y"])
        assert gp.fit_ is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prediction_point_rejected(self, bad):
        gp = GaussianProcess(noise_var=0.01, optimize=False, alpha=1.0)
        gp.fit(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 1.5]))
        with pytest.raises(ValueError, match="^x_star must be finite"):
            gp.predict(np.array([1.5, bad]))

    def test_factor_rejects_non_positive_definite_k(self):
        """A negative nugget larger than alpha makes K indefinite: the
        factor helper returns potrf's nonzero info, and the final
        assembly raises LinAlgError on it."""
        x = np.arange(1.0, 6.0)
        d = _distances(x, x)
        gp = GaussianProcess()
        _, info = gp._cholesky(Exponential.correlation_at(d, 1.0), 1.0, -2.0)
        assert info > 0
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            gp._assemble(x, np.sin(x), d, 1.0, 1.0, -2.0)

    def test_singular_trend_fails_every_objective_call(self):
        """Two identical trend columns make the GLS step singular for any
        (alpha, theta): every objective call returns the 1e12 sentinel and
        the final assembly raises LinAlgError."""

        class TwinTrend(TrendBasis):
            def design_matrix(self, x):
                return np.full((np.atleast_1d(x).shape[0], 2), 1e6)

            @property
            def n_functions(self):
                return 2

        x = np.arange(1.0, 9.0)
        gp = GaussianProcess(trend=TwinTrend(), noise_var=0.01)
        with pytest.raises(np.linalg.LinAlgError):
            gp.fit(x, np.sin(x))
