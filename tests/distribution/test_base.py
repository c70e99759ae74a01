"""Tests for distribution helpers: integer shares and tile counts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution import integer_shares, tile_counts

positive_weights = st.lists(
    st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=20,
)


class TestIntegerShares:
    def test_exact_split(self):
        assert integer_shares([1, 1, 2], 4) == [1, 1, 2]

    def test_sum_preserved(self):
        assert sum(integer_shares([3, 7, 11], 23)) == 23

    @settings(max_examples=100, deadline=None)
    @given(weights=positive_weights, total=st.integers(min_value=1, max_value=500))
    def test_property_sum_and_positivity(self, weights, total):
        shares = integer_shares(weights, total)
        assert sum(shares) == total
        assert all(s >= 0 for s in shares)
        if total >= len(weights):
            assert all(s >= 1 for s in shares)

    def test_every_node_represented(self):
        # A tiny weight still receives one unit when total allows.
        shares = integer_shares([100.0, 0.1], 10)
        assert shares[1] >= 1

    def test_proportionality(self):
        shares = integer_shares([1.0, 3.0], 100)
        assert shares == [25, 75]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            integer_shares([], 5)
        with pytest.raises(ValueError):
            integer_shares([1.0, -1.0], 5)
        with pytest.raises(ValueError):
            integer_shares([1.0], 0)


class TestBalanceStats:
    def test_tile_counts_cover_lower_triangle(self):
        counts = tile_counts(lambda i, j: 0, t=5)
        assert counts == {0: 15}
