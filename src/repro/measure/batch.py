"""Plan-batched scenario sweeps: the serial sweep path.

A scenario sweep simulates the same five-phase iteration graph once per
factorization node count -- ~120 configurations for the largest
clusters -- and the naive path rebuilds the STF graph and recompiles it
from scratch every time.  But the *structure* of the iteration graph
(tasks, dependencies, priorities, flops, read/write sets) is invariant
across ``(n_fact, n_gen)``: only data homes and owner-computes placements
move.  :class:`ScenarioBatch` therefore builds the graph and the
placement-independent :class:`~repro.runtime.simfast.PlanTemplate` once
-- sharing the generation-phase submission state across every
configuration -- and per configuration only re-homes the tiles/vector
blocks and rebinds the placement-dependent plan arrays before running
:class:`~repro.runtime.simfast.FastSimulator`'s core engine.

:func:`repro.measure.sweep.sweep_scenario` always sweeps serially
through this class.  Every makespan produced this way is bit-identical
to the naive ``build_iteration_graph`` + reference-``Simulator``
pipeline (enforced by ``tests/runtime/differential/test_batch_sweep.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..distribution import factorization_distribution, generation_distribution
from ..geostat.phases import IterationPlan, build_iteration_parts
from ..platform.cluster import Cluster
from ..runtime.perfmodel import PerfModel
from ..runtime.simfast import FastSimulator, compile_template
from ..runtime.simulator import SimulationResult
from ..workload import Workload

#: Task-placement spec kinds (see ``ScenarioBatch._specs``).
_GEN = 0   # generation task: node = gen_dist(i, j) of its tile tag
_OWNER = 1  # owner-computes task: node = new home of its first write


class ScenarioBatch:
    """Batched simulation of one scenario's configuration space.

    Builds the iteration graph a single time (at an arbitrary placement)
    and serves any ``(n_fact, n_gen)`` configuration by re-homing data
    handles and rebinding the compiled plan template.  Deterministic
    makespans are memoized per configuration, mirroring
    :meth:`repro.geostat.application.ExaGeoStat.measure` without noise.
    """

    def __init__(
        self,
        cluster: Cluster,
        workload: Workload,
        perfmodel: Optional[PerfModel] = None,
    ) -> None:
        self.cluster = cluster
        self.workload = workload
        self.perfmodel = perfmodel if perfmodel is not None else PerfModel()
        n = len(cluster)
        graph, tiles, rhs, scratch = build_iteration_parts(
            cluster, workload, IterationPlan(n_fact=1, n_gen=n)
        )
        self._template = compile_template(graph, cluster, self.perfmodel)
        self._sim = FastSimulator(cluster, self.perfmodel)

        # Which distribution re-homes each handle: tiles and the solve
        # rhs blocks follow the factorization distribution; everything
        # else (the reduction scratch) keeps its template home.
        self._tile_of = {h.hid: ij for ij, h in tiles.handles.items()}
        self._rhs_of = {h.hid: k for k, h in enumerate(rhs)}
        self._fixed_home = {
            hid: graph.registry[hid].home
            for hid in self._template.sizes
            if hid not in self._tile_of and hid not in self._rhs_of
        }

        # Owner-computes placement spec per task.  Generation tasks were
        # submitted *before* the redistribution, so their node follows
        # the generation distribution of their tile tag; every later
        # task executes where its first written handle lives (dag.py's
        # owner-computes rule over the post-redistribution homes).
        self._specs: List[Tuple[int, int, int]] = [
            (_GEN, t.tag[0], t.tag[1]) if t.phase == "generation"
            else (_OWNER, t.writes[0], 0)
            for t in graph.tasks
        ]
        self._memo: Dict[Tuple[int, int], float] = {}

    # -- binding --------------------------------------------------------------------

    def plan(self, n_fact: int, n_gen: Optional[int] = None):
        """The bound :class:`~repro.runtime.simfast.GraphPlan` of a config."""
        n = len(self.cluster)
        if n_gen is None:
            n_gen = n
        if not (1 <= n_fact <= n and 1 <= n_gen <= n):
            raise ValueError(
                f"plan IterationPlan(n_fact={n_fact}, n_gen={n_gen}) "
                f"out of range for a {n}-node cluster"
            )
        gen_dist = generation_distribution(self.cluster, n_gen)
        fact_dist = factorization_distribution(self.cluster, n_fact)
        tile_of = self._tile_of
        rhs_of = self._rhs_of
        fixed = self._fixed_home
        homes: Dict[int, int] = {}
        for hid in self._template.sizes:
            ij = tile_of.get(hid)
            if ij is not None:
                homes[hid] = fact_dist(ij[0], ij[1])
            else:
                k = rhs_of.get(hid)
                homes[hid] = fact_dist(k, k) if k is not None else fixed[hid]
        nodes = [
            gen_dist(a, b) if kind == _GEN else homes[a]
            for kind, a, b in self._specs
        ]
        return self._template.bind(nodes, homes)

    # -- measurement ----------------------------------------------------------------

    def simulate(self, plan: IterationPlan) -> SimulationResult:
        """Simulate one configuration (uncached, no noise).

        Emits the same ``simulator.run`` tracer event as
        :meth:`Simulator.run` / :meth:`FastSimulator.run`, so a traced
        batched sweep carries the per-configuration records the obs
        stats layer aggregates -- byte-identical to the naive path.
        """
        from ..obs import get_tracer

        tracer = get_tracer()
        if not tracer.enabled:
            return self._sim.run_plan(self.plan(plan.n_fact, plan.n_gen))
        host_t0 = tracer.clock.now()
        result = self._sim.run_plan(self.plan(plan.n_fact, plan.n_gen))
        tracer.event(
            "simulator.run",
            makespan=result.makespan,
            tasks=result.task_count,
            transfers=result.transfer_count,
            comm_s=result.comm_time,
            host_s=tracer.clock.now() - host_t0,
            phases={p: s[1] - s[0] for p, s in result.phase_spans.items()},
        )
        tracer.count("simulator.runs")
        return result

    def measure(self, n_fact: int, n_gen: Optional[int] = None) -> float:
        """Deterministic makespan of one configuration, memoized."""
        if n_gen is None:
            n_gen = len(self.cluster)
        key = (n_fact, n_gen)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self.simulate(
                IterationPlan(n_fact=n_fact, n_gen=n_gen)
            ).makespan
        return got

