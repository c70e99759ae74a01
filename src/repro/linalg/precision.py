"""Mixed-precision tile Cholesky (the paper's future work, Section VIII).

"ExaGeoStat can run the factorization with mixed precision blocks.  The
application could dynamically adjust the number of diagonals that use
each precision in a trade-off between accuracy and performance."

A :class:`PrecisionPolicy` keeps the ``dp_bands`` tile diagonals closest
to the main diagonal in double precision and stores the rest in single
precision: SP tiles halve the memory footprint (and transfer bytes) and
their kernels run roughly twice as fast, at the cost of likelihood
accuracy.  The numeric emulation quantizes SP tiles to float32 after
every kernel that writes them, so the accuracy loss is measured with
real numerics; the cost model feeds the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .tiles import TileStore


@dataclass(frozen=True)
class PrecisionPolicy:
    """Banded precision assignment over the lower tile triangle.

    Tile ``(i, j)`` (``i >= j``) is double precision iff its diagonal
    distance ``i - j`` is below ``dp_bands``; ``dp_bands >= t`` keeps
    everything in double precision.
    """

    dp_bands: int

    def __post_init__(self) -> None:
        if self.dp_bands < 1:
            raise ValueError("dp_bands must be >= 1 (the diagonal itself)")

    def is_double(self, i: int, j: int) -> bool:
        """Whether lower tile (i, j) is stored in double precision."""
        if i < j:
            raise ValueError("precision is defined on lower tiles (i >= j)")
        return (i - j) < self.dp_bands

    def tile_bytes(self, nb: int, i: int, j: int) -> float:
        """Stored bytes of tile (i, j)."""
        return (8.0 if self.is_double(i, j) else 4.0) * nb**2

    def flops_scale(self, i: int, j: int) -> float:
        """Cost multiplier for kernels writing tile (i, j).

        SP kernels run ~2x faster on both CPUs and GPUs, modelled as half
        the flop cost against the double-precision rates.
        """
        return 1.0 if self.is_double(i, j) else 0.5

    def double_fraction(self, t: int) -> float:
        """Fraction of lower tiles kept in double precision."""
        total = t * (t + 1) / 2
        dp = sum(
            1 for j in range(t) for i in range(j, t) if self.is_double(i, j)
        )
        return dp / total


def quantize_fp32(a: np.ndarray) -> np.ndarray:
    """Round-trip through float32: the representation error of SP storage."""
    return a.astype(np.float32).astype(np.float64)


def numeric_cholesky_mixed(store: TileStore, policy: PrecisionPolicy) -> TileStore:
    """Tile Cholesky with SP storage emulation for off-band tiles.

    Mirrors :func:`repro.linalg.cholesky.numeric_cholesky`, quantizing
    every value written to a single-precision tile (inputs included, as
    SP tiles are *stored* in float32).
    """
    t = store.t
    out = TileStore(store.t, store.nb)

    def q(i, j, block):
        return block if policy.is_double(i, j) else quantize_fp32(block)

    out.blocks = {
        (i, j): q(i, j, block.copy()) for (i, j), block in store.blocks.items()
    }
    b = out.blocks
    for k in range(t):
        b[(k, k)] = q(k, k, kernels.potrf(b[(k, k)]))
        for i in range(k + 1, t):
            b[(i, k)] = q(i, k, kernels.trsm(b[(k, k)], b[(i, k)]))
        for i in range(k + 1, t):
            b[(i, i)] = q(i, i, kernels.syrk(b[(i, i)], b[(i, k)]))
            for j in range(k + 1, i):
                b[(i, j)] = q(i, j, kernels.gemm(b[(i, j)], b[(i, k)], b[(j, k)]))
    return out
