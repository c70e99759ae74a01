"""Tests for tile Cholesky: numeric correctness and task-graph structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    TileGrid,
    TileStore,
    kernels,
    numeric_cholesky,
    submit_cholesky,
)
from repro.runtime import DataRegistry, TaskGraph


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestNumericCholesky:
    @pytest.mark.parametrize("t,nb", [(1, 4), (2, 3), (4, 4), (5, 2)])
    def test_matches_numpy(self, t, nb):
        a = random_spd(t * nb, seed=t * 100 + nb)
        store = TileStore.from_matrix(a, nb)
        factor = numeric_cholesky(store)
        assert np.allclose(factor.to_lower_matrix(), np.linalg.cholesky(a))

    def test_input_not_mutated(self):
        a = random_spd(8, seed=1)
        store = TileStore.from_matrix(a, 4)
        before = {ij: b.copy() for ij, b in store.blocks.items()}
        numeric_cholesky(store)
        for ij, b in store.blocks.items():
            assert np.array_equal(b, before[ij])

    @settings(max_examples=25, deadline=None)
    @given(
        t=st.integers(min_value=1, max_value=5),
        nb=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_reconstruction(self, t, nb, seed):
        """L L^T reconstructs the input for random SPD matrices."""
        a = random_spd(t * nb, seed)
        factor = numeric_cholesky(TileStore.from_matrix(a, nb))
        low = factor.to_lower_matrix()
        assert np.allclose(low @ low.T, a, atol=1e-8 * t * nb)


class TestCholeskyTaskGraph:
    def build(self, t=5, nb=4, owner=lambda i, j: 0):
        graph = TaskGraph(DataRegistry())
        tiles = TileGrid(t, nb)
        tiles.register(graph.registry, owner)
        tasks = submit_cholesky(graph, tiles)
        return graph, tiles, tasks

    def test_task_counts_match_formula(self):
        t = 6
        graph, _, _ = self.build(t=t)
        assert graph.counts_by_name() == kernels.cholesky_task_counts(t)

    def test_graph_is_acyclic(self):
        graph, _, _ = self.build()
        graph.validate_acyclic()

    def test_single_root_is_first_potrf(self):
        graph, _, _ = self.build()
        roots = graph.roots()
        assert len(roots) == 1
        assert graph.tasks[roots[0]].name == "potrf"
        assert graph.tasks[roots[0]].tag == (0, 0, 0)

    def test_total_flops(self):
        t, nb = 5, 4
        graph, _, _ = self.build(t=t, nb=nb)
        assert graph.total_flops() == pytest.approx(
            kernels.cholesky_total_flops(t, nb)
        )

    def test_owner_computes_placement(self):
        graph, _, _ = self.build(owner=lambda i, j: (i * 7 + j) % 3)
        for task in graph.tasks:
            _, i, j = task.tag
            assert task.node == (i * 7 + j) % 3

    def test_trsm_depends_on_potrf(self):
        graph, _, _ = self.build(t=3)
        preds = graph.predecessors()
        by_tag = {t.tag: t for t in graph.tasks}
        potrf0 = by_tag[(0, 0, 0)]
        trsm10 = by_tag[(0, 1, 0)]
        assert potrf0.tid in preds[trsm10.tid]

    def test_priorities_decrease_with_k(self):
        graph, _, _ = self.build(t=4)
        by_tag = {t.tag: t for t in graph.tasks}
        assert by_tag[(0, 0, 0)].priority > by_tag[(1, 1, 1)].priority

    def test_phase_label(self):
        graph, _, _ = self.build()
        assert all(t.phase == "factorization" for t in graph.tasks)
