"""Tests for the mixed-precision trade-off experiment."""

import pytest

from repro.geostat import mixed_precision_tradeoff
from repro.linalg import PrecisionPolicy


@pytest.fixture(autouse=True)
def small(monkeypatch):
    monkeypatch.setenv("REPRO_TILES_128", "10")


class TestTradeoff:
    @pytest.fixture(scope="class")
    def rows(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_TILES_128", "10")
            return mixed_precision_tradeoff(
                [1, 3, 10], scenario_key="c", n_points=48, seed=1
            )

    def test_rows_structure(self, rows):
        assert [r.dp_bands for r in rows] == [1, 3, 10]
        assert all(r.iteration_time > 0 for r in rows)

    def test_dp_fraction_monotone(self, rows):
        fracs = [r.dp_fraction for r in rows]
        assert fracs == sorted(fracs)
        assert fracs[-1] == pytest.approx(1.0)

    def test_full_precision_is_exact(self, rows):
        assert rows[-1].loglik_error == pytest.approx(0.0, abs=1e-9)

    def test_fewer_bands_faster(self, rows):
        assert rows[0].iteration_time < rows[-1].iteration_time

    def test_accuracy_degrades_with_fewer_bands(self, rows):
        assert rows[0].loglik_error >= rows[-1].loglik_error

    def test_validation(self):
        with pytest.raises(ValueError):
            mixed_precision_tradeoff([0], scenario_key="c", n_points=32)
