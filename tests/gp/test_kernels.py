"""Tests for GP correlation kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp import Exponential, Gaussian

KERNELS = [Exponential, Gaussian]


@pytest.mark.parametrize("kernel_cls", KERNELS)
class TestKernelProperties:
    def test_unit_diagonal(self, kernel_cls):
        k = kernel_cls(theta=2.0)
        x = np.array([0.0, 1.0, 5.0])
        assert np.allclose(np.diag(k(x, x)), 1.0)

    def test_symmetry(self, kernel_cls):
        k = kernel_cls(theta=1.5)
        x = np.array([0.0, 0.7, 2.0, 3.1])
        m = k(x, x)
        assert np.allclose(m, m.T)

    def test_decay_with_distance(self, kernel_cls):
        k = kernel_cls(theta=1.0)
        d = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
        c = k.correlation(d)
        assert np.all(np.diff(c) < 0)

    def test_positive_semidefinite(self, kernel_cls):
        k = kernel_cls(theta=0.8)
        x = np.linspace(0, 10, 25)
        eig = np.linalg.eigvalsh(k(x, x))
        assert eig.min() > -1e-9

    def test_theta_validation(self, kernel_cls):
        with pytest.raises(ValueError):
            kernel_cls(theta=0.0)

    def test_with_theta(self, kernel_cls):
        k = kernel_cls(theta=1.0).with_theta(3.0)
        assert isinstance(k, kernel_cls)
        assert k.theta == 3.0


class TestExponentialValues:
    def test_matches_formula(self):
        k = Exponential(theta=2.0)
        assert k.correlation(np.array([2.0]))[0] == pytest.approx(np.exp(-1.0))

    def test_longer_theta_higher_correlation(self):
        d = np.array([1.0])
        assert Exponential(theta=5.0).correlation(d) > Exponential(theta=0.5).correlation(d)

    @settings(max_examples=50, deadline=None)
    @given(
        d=st.floats(min_value=0.0, max_value=100.0),
        theta=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_property_range(self, d, theta):
        c = Exponential(theta=theta).correlation(np.array([d]))[0]
        assert 0.0 <= c <= 1.0  # underflows to 0.0 at extreme d/theta


class TestRectangularShapes:
    def test_cross_correlation_shape(self):
        k = Exponential(theta=1.0)
        assert k(np.zeros(3), np.zeros(5)).shape == (3, 5)
