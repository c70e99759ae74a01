"""Tile Cholesky factorization: task-graph generator and numeric executor.

The task graph follows the right-looking tile Cholesky used by Chameleon
(the library ExaGeoStat uses for phase ii):

.. code-block:: text

    for k in 0..t-1:
        POTRF A[k,k]
        for i in k+1..t-1:   TRSM(A[k,k] -> A[i,k])
        for i in k+1..t-1:
            SYRK(A[i,k] -> A[i,i])
            for j in k+1..i-1:  GEMM(A[i,k], A[j,k] -> A[i,j])

Priorities favour the critical path (panel operations of early columns),
the standard heuristic for tile Cholesky schedulers.

The numeric executor runs the same kernel sequence on real numpy tiles,
used to validate correctness against ``numpy.linalg.cholesky`` and to
power the real (small-scale) ExaGeoStat likelihood path.
"""

from __future__ import annotations

from typing import List

from ..runtime.dag import TaskGraph
from ..runtime.task import Task
from . import kernels
from .tiles import TileGrid, TileStore

PHASE = "factorization"


def submit_cholesky(
    graph: TaskGraph, tiles: TileGrid, phase: str = PHASE, policy=None
) -> List[Task]:
    """Submit the tile Cholesky task graph for ``tiles``.

    Tiles must already be registered (and, for a multi-phase run,
    redistributed to the factorization distribution).  ``policy`` is an
    optional :class:`~repro.linalg.precision.PrecisionPolicy`: kernels
    writing single-precision tiles cost half the flops.  Returns the
    submitted tasks in submission order.
    """
    t, nb = tiles.t, tiles.nb

    def scale(i: int, j: int) -> float:
        return policy.flops_scale(i, j) if policy is not None else 1.0

    tasks: List[Task] = []
    for k in range(t):
        base = 3 * (t - k)
        a_kk = tiles.handle(k, k)
        tasks.append(
            graph.submit(
                "potrf", phase, kernels.potrf_flops(nb) * scale(k, k),
                reads=[a_kk], writes=[a_kk],
                priority=base + 2, tag=(k, k, k),
            )
        )
        for i in range(k + 1, t):
            a_ik = tiles.handle(i, k)
            tasks.append(
                graph.submit(
                    "trsm", phase, kernels.trsm_flops(nb) * scale(i, k),
                    reads=[a_kk, a_ik], writes=[a_ik],
                    priority=base + 1, tag=(k, i, k),
                )
            )
        for i in range(k + 1, t):
            a_ik = tiles.handle(i, k)
            a_ii = tiles.handle(i, i)
            tasks.append(
                graph.submit(
                    "syrk", phase, kernels.syrk_flops(nb) * scale(i, i),
                    reads=[a_ik, a_ii], writes=[a_ii],
                    priority=base, tag=(k, i, i),
                )
            )
            for j in range(k + 1, i):
                a_jk = tiles.handle(j, k)
                a_ij = tiles.handle(i, j)
                tasks.append(
                    graph.submit(
                        "gemm", phase, kernels.gemm_flops(nb) * scale(i, j),
                        reads=[a_ik, a_jk, a_ij], writes=[a_ij],
                        priority=base, tag=(k, i, j),
                    )
                )
    return tasks


def numeric_cholesky(store: TileStore) -> TileStore:
    """Run the tile Cholesky numerically; returns the factor tiles L.

    Consumes a :class:`TileStore` holding the lower tiles of an SPD matrix
    and applies the same kernel sequence the task graph encodes.
    """
    t = store.t
    out = TileStore(store.t, store.nb)
    out.blocks = {ij: block.copy() for ij, block in store.blocks.items()}
    b = out.blocks
    for k in range(t):
        b[(k, k)] = kernels.potrf(b[(k, k)])
        for i in range(k + 1, t):
            b[(i, k)] = kernels.trsm(b[(k, k)], b[(i, k)])
        for i in range(k + 1, t):
            b[(i, i)] = kernels.syrk(b[(i, i)], b[(i, k)])
            for j in range(k + 1, i):
                b[(i, j)] = kernels.gemm(b[(i, j)], b[(i, k)], b[(j, k)])
    return out
