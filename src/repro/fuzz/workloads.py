"""Non-Cholesky workload family: a map/shuffle/reduce pipeline.

The paper evaluates a single application (ExaGeoStat's tile Cholesky);
the fuzzer needs at least one structurally different multi-phase DAG so
strategy properties are not conditioned on the Cholesky shape.  This
module contributes a classic map/shuffle/reduce pipeline with
*dependency-driven stragglers*: partition weights are skewed, so one
shuffle/reduce chain carries several times the bytes and flops of its
siblings and the final collect task waits on it -- the limplock-style
tail that distributed-simulator studies use to stress schedulers.

The family plugs in behind the exact abstractions the Cholesky path
uses: tasks are submitted to :class:`repro.runtime.dag.TaskGraph` with
phases/priorities/data handles, executed by
:class:`repro.runtime.simfast.FastSimulator` under a
:class:`repro.runtime.perfmodel.PerfModel`, and wrapped in an
application object (:class:`MSRApp`) with the same ``measure(n)``
contract as :class:`repro.geostat.application.ExaGeoStat` -- so timeline
analytics and the measurement-bank protocol apply unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..platform.cluster import Cluster
from ..runtime import (
    CPU,
    DEFAULT_EFFICIENCY,
    GPU,
    DataRegistry,
    FastSimulator,
    PerfModel,
    SimulationResult,
    TaskGraph,
)

#: Phase names of the pipeline, in dependency order (the analogue of
#: :data:`repro.geostat.phases.PHASES`).
MSR_PHASES = ("map", "shuffle", "reduce", "collect")

#: Kernel efficiencies of the pipeline's task types.  Map and reduce are
#: compute kernels that also run on accelerators; the shuffle merge is
#: memory-bound and CPU-only; the final collect is a tiny CPU reduction.
MSR_EFFICIENCY = {
    ("mapk", CPU): 0.90, ("mapk", GPU): 0.80,
    ("mergek", CPU): 0.35,
    ("reducek", CPU): 0.85, ("reducek", GPU): 0.75,
    ("collectk", CPU): 0.50,
}


def msr_perfmodel() -> PerfModel:
    """The default kernel model extended with the pipeline's kernels."""
    efficiency = dict(DEFAULT_EFFICIENCY)
    efficiency.update(MSR_EFFICIENCY)
    return PerfModel(efficiency=efficiency)


@dataclass(frozen=True)
class MapShuffleReduceWorkload:
    """One map/shuffle/reduce problem instance.

    Attributes
    ----------
    maps:
        Number of map tasks (input splits).
    reduces:
        Number of reduce partitions.
    record_mb:
        Input megabytes per map task; shuffled volume equals the input
        volume (identity-sized intermediate records).
    map_flops:
        Flops of one map task.
    reduce_flops:
        Total reduce flops at unit skew, split across partitions by
        weight.
    skew:
        Weight multiplier of partition 0 (>= 1): the dependency-driven
        straggler.  ``skew=1`` is a balanced pipeline.
    """

    maps: int
    reduces: int
    record_mb: float
    map_flops: float
    reduce_flops: float
    skew: float = 1.0
    name: str = "msr"

    def __post_init__(self) -> None:
        if self.maps < 1 or self.reduces < 1:
            raise ValueError("maps and reduces must be >= 1")
        if self.record_mb <= 0 or self.map_flops <= 0 or self.reduce_flops <= 0:
            raise ValueError("sizes and flops must be positive")
        if self.skew < 1.0:
            raise ValueError("skew must be >= 1 (1 = balanced)")

    @property
    def partition_weights(self) -> List[float]:
        """Normalized partition weights; partition 0 carries the skew."""
        raw = [self.skew] + [1.0] * (self.reduces - 1)
        total = sum(raw)
        return [w / total for w in raw]

    @property
    def input_bytes(self) -> float:
        """Total input volume (= shuffled volume), bytes."""
        return self.maps * self.record_mb * 1e6

    @property
    def total_flops(self) -> float:
        """Total task flops of one pipeline run (n-independent)."""
        merge_flops = 0.1 * self.reduce_flops
        collect_flops = 1e7 * self.reduces
        return (
            self.maps * self.map_flops
            + merge_flops
            + self.reduce_flops
            + collect_flops
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MSR {self.maps}x{self.reduces} "
            f"({self.record_mb:.0f} MB/map, skew {self.skew:.1f})"
        )


def build_msr_graph(
    cluster: Cluster, workload: MapShuffleReduceWorkload, n: int
) -> TaskGraph:
    """Build the four-phase pipeline DAG over the ``n`` fastest nodes.

    Placement is owner-computes, exactly like the Cholesky path: input
    splits are homed round-robin over the ``n`` nodes, each map writes
    one intermediate slice per partition (homed with its input), the
    merge task of partition ``r`` owns the merged block on node
    ``r % n`` -- so the shuffle's all-to-all transfers are triggered by
    the merge reads -- and the final collect is pinned to node 0.  The
    skewed partition's merge and reduce carry ``skew`` times the bytes
    and flops of their siblings: the collect task depends on them, which
    is what makes the straggler *dependency-driven* rather than a mere
    slow node.
    """
    if not 1 <= n <= len(cluster):
        raise ValueError(f"n must be in [1, {len(cluster)}], got {n}")
    graph = TaskGraph(DataRegistry())
    registry = graph.registry
    weights = workload.partition_weights
    split_bytes = workload.record_mb * 1e6

    # Phase i: map.  One task per input split, round-robin homes.
    slices: List[List] = [[] for _ in range(workload.reduces)]
    for m in range(workload.maps):
        home = m % n
        inp = registry.register(f"in[{m}]", split_bytes, home=home)
        outs = []
        for r in range(workload.reduces):
            s = registry.register(
                f"p[{m},{r}]", split_bytes * weights[r], home=home
            )
            outs.append(s)
            slices[r].append(s)
        graph.submit(
            "mapk", "map", workload.map_flops,
            reads=[inp], writes=outs, priority=1, tag=(m,),
        )

    # Phase ii: shuffle.  One merge per partition pulls every slice to
    # the partition's home node (the all-to-all).
    merged = []
    merge_flops_total = 0.1 * workload.reduce_flops
    for r in range(workload.reduces):
        part_bytes = workload.input_bytes * weights[r]
        block = registry.register(f"m[{r}]", part_bytes, home=r % n)
        graph.submit(
            "mergek", "shuffle", merge_flops_total * weights[r],
            reads=slices[r], writes=[block], tag=(r,),
        )
        merged.append(block)

    # Phase iii: reduce on the merged partition, owner-computes.
    outputs = []
    for r in range(workload.reduces):
        out = registry.register(f"out[{r}]", 8.0 * 1024, home=r % n)
        graph.submit(
            "reducek", "reduce", workload.reduce_flops * weights[r],
            reads=[merged[r]], writes=[out], tag=(r,),
        )
        outputs.append(out)

    # Phase iv: collect, pinned to the fastest node.
    graph.submit(
        "collectk", "collect", 1e7 * workload.reduces,
        reads=outputs, node=0,
    )
    return graph


class MSRApp:
    """Iterative map/shuffle/reduce application over the simulated runtime.

    :meth:`measure` is the deterministic makespan of one node count,
    the ``measure(n)`` contract of
    :class:`repro.geostat.application.ExaGeoStat` without noise: the
    bank builder (:func:`repro.fuzz.properties.build_bank`) measures
    each node count once and adds the mode's observation noise itself,
    the paper's Section V resampling methodology.
    """

    def __init__(
        self,
        cluster: Cluster,
        workload: MapShuffleReduceWorkload,
        perfmodel: Optional[PerfModel] = None,
        trace: bool = False,
    ) -> None:
        self.cluster = cluster
        self.workload = workload
        self.simulator = FastSimulator(
            cluster,
            perfmodel if perfmodel is not None else msr_perfmodel(),
            trace=trace,
        )

    def simulate(self, n: int) -> SimulationResult:
        """Simulate one pipeline run over the ``n`` fastest nodes."""
        return self.simulator.run(build_msr_graph(self.cluster, self.workload, n))

    def measure(self, n: int) -> float:
        """Deterministic duration of one run using ``n`` nodes."""
        return self.simulate(n).makespan

    def lp_bound(self, n: int) -> float:
        """Perfect-parallelism lower bound for ``n`` nodes, seconds.

        Total flops over the aggregate rate of the ``n`` fastest nodes --
        a valid lower bound (efficiencies are <= 1 and communication only
        adds time), decreasing in ``n`` as the GP-discontinuous bound
        mechanism expects.
        """
        return self.workload.total_flops / (
            self.cluster.total_gflops(n) * 1e9
        )
