"""Distribution utilities shared by all distribution schemes.

A *distribution* maps a lower tile coordinate ``(i, j)`` to a node index.
This module provides integer share allocation (largest remainder) and the
per-node tile count of a distribution.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

#: A tile distribution (same contract as repro.linalg.tiles.TileDistribution).
TileDistribution = Callable[[int, int], int]


def integer_shares(
    weights: Sequence[float], total: int, ensure_min: bool = True
) -> List[int]:
    """Split ``total`` units across weights by the largest-remainder method.

    With ``ensure_min`` (the default) every positive weight receives at
    least one unit when ``total`` allows (``total >= len(weights)``).
    With ``ensure_min=False`` tiny weights may receive zero units -- used
    when a fair rounding matters more than full participation (pattern
    rows: a node whose fair share is far below one cell should own no
    tiles rather than a 4x-inflated share).
    """
    if total < 1:
        raise ValueError("total must be >= 1")
    if not weights or any(w <= 0 for w in weights):
        raise ValueError("weights must be non-empty and positive")
    wsum = float(sum(weights))
    raw = [w / wsum * total for w in weights]
    floors = [int(x) for x in raw]
    if ensure_min and total >= len(weights):
        floors = [max(1, f) for f in floors]
    deficit = total - sum(floors)
    if deficit > 0:
        remainders = sorted(
            range(len(weights)), key=lambda i: raw[i] - int(raw[i]), reverse=True
        )
        for i in remainders[:deficit]:
            floors[i] += 1
    elif deficit < 0:
        # Take back units from the largest holders (never below 1).
        order = sorted(range(len(weights)), key=lambda i: floors[i], reverse=True)
        k = 0
        while deficit < 0:
            i = order[k % len(order)]
            if floors[i] > 1 or total < len(weights):
                floors[i] -= 1
                deficit += 1
            k += 1
    return floors


def tile_counts(distribution: TileDistribution, t: int) -> Dict[int, int]:
    """Tiles owned by each node under ``distribution`` on a t x t grid."""
    counts: Dict[int, int] = {}
    for j in range(t):
        for i in range(j, t):
            node = distribution(i, j)
            counts[node] = counts.get(node, 0) + 1
    return counts

