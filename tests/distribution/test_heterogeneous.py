"""Tests for the per-phase heterogeneous distributions of a scenario."""

import pytest

from repro.distribution import (
    factorization_distribution,
    generation_distribution,
    tile_counts,
)
from repro.platform import get_scenario


class TestScenarioDistributions:
    def test_factorization_uses_first_n_nodes_only(self):
        cluster = get_scenario("b").build_cluster()
        dist = factorization_distribution(cluster, 5)
        counts = tile_counts(dist, t=26)
        assert max(counts) < 5

    def test_factorization_weights_favor_gpu_nodes(self):
        cluster = get_scenario("b").build_cluster()  # 2L-6M-6S
        dist = factorization_distribution(cluster, 14)
        counts = tile_counts(dist, t=26)
        # L nodes (indices 0-1, with P100s) own more tiles than S nodes.
        l_avg = (counts.get(0, 0) + counts.get(1, 0)) / 2
        s_avg = sum(counts.get(i, 0) for i in range(8, 14)) / 6
        assert l_avg > s_avg

    def test_generation_weights_are_cpu_based(self):
        """For generation, GPU-heavy nodes get shares close to CPU share."""
        cluster = get_scenario("b").build_cluster()
        dist = generation_distribution(cluster, 14)
        counts = tile_counts(dist, t=26)
        total = sum(counts.values())
        cpu_weights = [n.generation_gflops for n in cluster]
        expected0 = cpu_weights[0] / sum(cpu_weights)
        assert counts.get(0, 0) / total == pytest.approx(expected0, abs=0.06)
