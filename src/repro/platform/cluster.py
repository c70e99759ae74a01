"""Heterogeneous cluster model.

A :class:`Cluster` is an ordered collection of :class:`~repro.platform.node.Node`
instances sorted fastest-first (the paper always uses the ``n`` fastest
nodes, Section IV: "trading a slow node for a fast one is always
detrimental").  Nodes of the same :class:`~repro.platform.node.NodeType`
form *groups*; the group boundaries are where the paper's performance
discontinuities appear and where the GP-discontinuous dummy variables
switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from .network import NetworkModel
from .node import Node, NodeType


@dataclass(frozen=True)
class Group:
    """A maximal run of consecutive identical-type nodes.

    ``start``/``stop`` follow Python slice conventions over the cluster's
    fastest-first node ordering: the group covers node counts
    ``start+1 .. stop`` and node indices ``start .. stop-1``.
    """

    node_type: NodeType
    start: int
    stop: int

    @property
    def size(self) -> int:
        """Number of nodes in the group."""
        return self.stop - self.start

    @property
    def last_count(self) -> int:
        """Node count ``n`` at which this group is fully included."""
        return self.stop


class Cluster:
    """An ordered, heterogeneous set of computational nodes.

    Parameters
    ----------
    composition:
        Sequence of ``(node_type, count)`` pairs.  Node types are sorted
        fastest-first by :attr:`NodeType.total_gflops` (ties broken by CPU
        speed then name) regardless of the order given.
    network:
        The interconnect model; defaults to :class:`NetworkModel` defaults.
    name:
        Optional label (e.g. ``"G5K 2L-6M-6S"``).
    """

    def __init__(
        self,
        composition: Iterable[Tuple[NodeType, int]],
        network: NetworkModel | None = None,
        name: str = "",
    ) -> None:
        pairs = [(nt, int(count)) for nt, count in composition]
        if not pairs:
            raise ValueError("composition must not be empty")
        for nt, count in pairs:
            if count <= 0:
                raise ValueError(f"count for {nt.name} must be positive, got {count}")
        pairs.sort(key=lambda p: (-p[0].total_gflops, -p[0].cpu_gflops, p[0].name))

        nodes: List[Node] = []
        groups: List[Group] = []
        for nt, count in pairs:
            start = len(nodes)
            for _ in range(count):
                nodes.append(Node(index=len(nodes), node_type=nt))
            groups.append(Group(node_type=nt, start=start, stop=len(nodes)))

        self._nodes: Tuple[Node, ...] = tuple(nodes)
        self._groups: Tuple[Group, ...] = tuple(groups)
        self.network = network if network is not None else NetworkModel()
        self.name = name or "-".join(f"{g.size}{g.node_type.category}" for g in groups)

    # -- basic container behaviour -------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self):
        return iter(self._nodes)

    def __getitem__(self, index: int) -> Node:
        return self._nodes[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster({self.name!r}, n={len(self)})"

    # -- structure ------------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[Node, ...]:
        """All nodes, fastest first."""
        return self._nodes

    @property
    def groups(self) -> Tuple[Group, ...]:
        """Homogeneous node groups, fastest first."""
        return self._groups

    @property
    def group_sizes(self) -> Tuple[int, ...]:
        """Node count of each group."""
        return tuple(g.size for g in self._groups)

    @property
    def group_boundaries(self) -> Tuple[int, ...]:
        """Node counts at which a new group becomes fully included.

        For a 5L-5M-5S cluster this is ``(5, 10, 15)`` -- exactly the action
        set of the paper's UCB-struct strategy.
        """
        return tuple(g.last_count for g in self._groups)

    def group_of(self, node_index: int) -> int:
        """Index (0-based) of the group containing ``node_index``."""
        if not 0 <= node_index < len(self._nodes):
            raise IndexError(f"node index {node_index} out of range")
        for gi, g in enumerate(self._groups):
            if g.start <= node_index < g.stop:
                return gi
        raise AssertionError("unreachable")  # pragma: no cover

    def group_of_count(self, n: int) -> int:
        """Index of the group that the ``n``-th fastest node belongs to."""
        return self.group_of(n - 1)

    def subset(self, n: int) -> Tuple[Node, ...]:
        """The ``n`` fastest nodes."""
        if not 1 <= n <= len(self._nodes):
            raise ValueError(f"n must be in [1, {len(self._nodes)}], got {n}")
        return self._nodes[:n]

    # -- aggregate speeds -------------------------------------------------------------

    def total_gflops(self, n: int | None = None) -> float:
        """Aggregate CPU+GPU throughput of the ``n`` fastest nodes."""
        nodes = self._nodes if n is None else self.subset(n)
        return sum(node.total_gflops for node in nodes)

    def generation_gflops(self, n: int | None = None) -> float:
        """Aggregate CPU-only throughput of the ``n`` fastest nodes."""
        nodes = self._nodes if n is None else self.subset(n)
        return sum(node.generation_gflops for node in nodes)

    def speeds(self, n: int | None = None) -> List[float]:
        """Per-node CPU+GPU throughput for the ``n`` fastest nodes."""
        nodes = self._nodes if n is None else self.subset(n)
        return [node.total_gflops for node in nodes]

    def min_nodes_for(self, matrix_bytes: float) -> int:
        """Minimum node count whose combined memory holds the matrix.

        Fills memory fastest-first; used to clip the left end of the search
        space exactly like the paper's Figure 5 x-axis ranges.
        """
        if matrix_bytes <= 0:
            return 1
        acc = 0.0
        for i, node in enumerate(self._nodes, start=1):
            acc += node.node_type.memory_gb * 1e9
            if acc >= matrix_bytes:
                return i
        raise ValueError(
            f"cluster memory ({acc / 1e9:.1f} GB) cannot hold matrix "
            f"({matrix_bytes / 1e9:.1f} GB)"
        )

    def counts_by_category(self) -> dict:
        """Mapping category -> node count (e.g. {'L': 2, 'M': 6, 'S': 6})."""
        out: dict = {}
        for g in self._groups:
            out[g.node_type.category] = out.get(g.node_type.category, 0) + g.size
        return out
