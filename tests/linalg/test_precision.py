"""Tests for the mixed-precision Cholesky extension."""

import numpy as np
import pytest

from repro.linalg import (
    PrecisionPolicy,
    TileStore,
    numeric_cholesky,
    numeric_cholesky_mixed,
    quantize_fp32,
)


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestPrecisionPolicy:
    def test_band_membership(self):
        p = PrecisionPolicy(dp_bands=2)
        assert p.is_double(0, 0)
        assert p.is_double(3, 2)       # distance 1 < 2
        assert not p.is_double(4, 1)   # distance 3

    def test_all_double_when_bands_cover_grid(self):
        p = PrecisionPolicy(dp_bands=10)
        assert all(p.is_double(i, j) for j in range(8) for i in range(j, 8))

    def test_tile_bytes_halved_for_sp(self):
        p = PrecisionPolicy(dp_bands=1)
        assert p.tile_bytes(10, 0, 0) == 800.0
        assert p.tile_bytes(10, 5, 0) == 400.0

    def test_flops_scale(self):
        p = PrecisionPolicy(dp_bands=1)
        assert p.flops_scale(0, 0) == 1.0
        assert p.flops_scale(5, 0) == 0.5

    def test_double_fraction_monotone(self):
        fracs = [PrecisionPolicy(b).double_fraction(10) for b in (1, 3, 10)]
        assert fracs[0] < fracs[1] < fracs[2] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(dp_bands=0)
        with pytest.raises(ValueError):
            PrecisionPolicy(dp_bands=1).is_double(0, 1)


class TestQuantize:
    def test_roundtrip_small_error(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((16, 16))
        q = quantize_fp32(a)
        assert q.dtype == np.float64
        assert np.max(np.abs(q - a)) < 1e-6
        assert not np.array_equal(q, a)


class TestMixedCholesky:
    def setup_method(self):
        self.a = random_spd(24, seed=3)
        self.store = TileStore.from_matrix(self.a, 4)

    def test_full_dp_matches_reference(self):
        policy = PrecisionPolicy(dp_bands=6)  # everything double
        mixed = numeric_cholesky_mixed(self.store, policy)
        ref = numeric_cholesky(self.store)
        assert np.allclose(mixed.to_lower_matrix(), ref.to_lower_matrix())

    def test_mixed_factor_close_to_reference(self):
        policy = PrecisionPolicy(dp_bands=2)
        mixed = numeric_cholesky_mixed(self.store, policy)
        ref = numeric_cholesky(self.store)
        low_m, low_r = mixed.to_lower_matrix(), ref.to_lower_matrix()
        assert np.allclose(low_m, low_r, atol=1e-3)
        assert not np.array_equal(low_m, low_r)  # fp32 error is present

    def test_error_decreases_with_more_bands(self):
        ref = numeric_cholesky(self.store).to_lower_matrix()
        errs = []
        for bands in (1, 3, 6):
            mixed = numeric_cholesky_mixed(
                self.store, PrecisionPolicy(dp_bands=bands)
            ).to_lower_matrix()
            errs.append(np.max(np.abs(mixed - ref)))
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[2] == 0.0
