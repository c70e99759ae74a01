"""Unit tests for the heterogeneous cluster model."""

import pytest

from repro.platform import (
    B715,
    B715_GPU,
    CHETEMI,
    CHIFFLET,
    CHIFFLOT,
    Cluster,
)


@pytest.fixture
def g5k_cluster():
    return Cluster([(CHIFFLOT, 2), (CHIFFLET, 6), (CHETEMI, 6)])


class TestClusterStructure:
    def test_length(self, g5k_cluster):
        assert len(g5k_cluster) == 14

    def test_nodes_sorted_fastest_first(self, g5k_cluster):
        speeds = [n.total_gflops for n in g5k_cluster]
        assert speeds == sorted(speeds, reverse=True)

    def test_sorting_independent_of_input_order(self):
        a = Cluster([(CHETEMI, 6), (CHIFFLOT, 2), (CHIFFLET, 6)])
        b = Cluster([(CHIFFLOT, 2), (CHIFFLET, 6), (CHETEMI, 6)])
        assert [n.node_type.name for n in a] == [n.node_type.name for n in b]

    def test_group_sizes(self, g5k_cluster):
        assert g5k_cluster.group_sizes == (2, 6, 6)

    def test_group_boundaries_are_ucb_struct_actions(self, g5k_cluster):
        assert g5k_cluster.group_boundaries == (2, 8, 14)

    def test_group_of(self, g5k_cluster):
        assert g5k_cluster.group_of(0) == 0
        assert g5k_cluster.group_of(1) == 0
        assert g5k_cluster.group_of(2) == 1
        assert g5k_cluster.group_of(7) == 1
        assert g5k_cluster.group_of(8) == 2
        assert g5k_cluster.group_of(13) == 2

    def test_group_of_count(self, g5k_cluster):
        assert g5k_cluster.group_of_count(2) == 0
        assert g5k_cluster.group_of_count(3) == 1

    def test_group_of_out_of_range(self, g5k_cluster):
        with pytest.raises(IndexError):
            g5k_cluster.group_of(14)

    def test_node_indices_are_contiguous(self, g5k_cluster):
        assert [n.index for n in g5k_cluster] == list(range(14))

    def test_default_name(self, g5k_cluster):
        assert g5k_cluster.name == "2L-6M-6S"

    def test_empty_composition_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            Cluster([(CHETEMI, 0)])


class TestClusterSubsetsAndSpeeds:
    def test_subset_returns_fastest(self, g5k_cluster):
        sub = g5k_cluster.subset(3)
        assert len(sub) == 3
        assert [n.category for n in sub] == ["L", "L", "M"]

    def test_subset_bounds(self, g5k_cluster):
        with pytest.raises(ValueError):
            g5k_cluster.subset(0)
        with pytest.raises(ValueError):
            g5k_cluster.subset(15)

    def test_total_gflops_monotone_in_n(self, g5k_cluster):
        totals = [g5k_cluster.total_gflops(n) for n in range(1, 15)]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_total_gflops_value(self, g5k_cluster):
        expected = 2 * CHIFFLOT.total_gflops + CHIFFLET.total_gflops
        assert g5k_cluster.total_gflops(3) == pytest.approx(expected)

    def test_generation_gflops_cpu_only(self, g5k_cluster):
        expected = 2 * CHIFFLOT.cpu_gflops + 6 * CHIFFLET.cpu_gflops + 6 * CHETEMI.cpu_gflops
        assert g5k_cluster.generation_gflops() == pytest.approx(expected)

    def test_speeds_length(self, g5k_cluster):
        assert len(g5k_cluster.speeds(5)) == 5

    def test_counts_by_category(self, g5k_cluster):
        assert g5k_cluster.counts_by_category() == {"L": 2, "M": 6, "S": 6}


class TestMemoryFeasibility:
    def test_min_nodes_for_small_matrix(self, g5k_cluster):
        assert g5k_cluster.min_nodes_for(1e9) == 1

    def test_min_nodes_accumulates(self):
        cluster = Cluster([(B715_GPU, 10), (B715, 10)])
        # B715 nodes hold 24 GB each -> 120.8 GB needs 6 nodes.
        assert cluster.min_nodes_for(120.8e9) == 6

    def test_min_nodes_too_large_raises(self):
        cluster = Cluster([(B715, 2)])
        with pytest.raises(ValueError, match="cannot hold"):
            cluster.min_nodes_for(1e15)

    def test_nonpositive_matrix(self, g5k_cluster):
        assert g5k_cluster.min_nodes_for(0) == 1

