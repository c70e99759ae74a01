"""Tests for the nearest-rank quantile of trace aggregation (obs/stats.py)."""

import pytest

from repro.obs.stats import quantile


class TestQuantile:
    def test_empty(self):
        assert quantile([], 0.5) == 0

    def test_singleton(self):
        assert quantile([7.0], 0.0) == pytest.approx(7.0)
        assert quantile([7.0], 1.0) == pytest.approx(7.0)

    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        assert quantile(values, 0.50) == pytest.approx(50.0)
        assert quantile(values, 0.95) == pytest.approx(95.0)
        assert quantile(values, 0.99) == pytest.approx(99.0)
        assert quantile(values, 1.0) == pytest.approx(100.0)

    def test_order_independent(self):
        assert quantile([3.0, 1.0, 2.0], 0.5) == quantile([1.0, 2.0, 3.0], 0.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)
