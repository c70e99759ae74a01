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

This is the one place that simulates and memoizes a plan's
deterministic duration: :func:`repro.measure.sweep.sweep_scenario`,
``sweep_phases`` and ``sweep_2d`` sweep serially through this class, and
:class:`repro.geostat.application.ExaGeoStat` measures through one batch
that it builds on first use, layering its observation noise on top.
Every makespan produced this way is bit-identical to the naive
``build_iteration_graph`` + reference-``Simulator`` pipeline (enforced
by ``tests/runtime/differential/test_batch_sweep.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..distribution import factorization_distribution, generation_distribution
from ..geostat.phases import IterationPlan, build_iteration_parts
from ..platform.cluster import Cluster
from ..runtime.perfmodel import PerfModel
from ..runtime.simfast import FastSimulator, compile_template, traced_run
from ..runtime.simulator import SimulationResult
from ..workload import Workload

class ScenarioBatch:
    """Batched simulation of one scenario's configuration space.

    Builds the iteration graph a single time (at an arbitrary placement)
    and serves any ``(n_fact, n_gen)`` configuration by re-homing data
    handles and rebinding the compiled plan template.  Deterministic
    makespans are memoized per configuration ("all the possible
    distributions were precomputed", Section V).
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
        # else (the reduction scratch) keeps its template home.  Handle
        # ids are dense, so homes are one int array indexed by hid.
        self._tiles = list(tiles.handles)
        self._tile_hids = np.array(
            [h.hid for h in tiles.handles.values()], dtype=np.intp
        )
        self._rhs_hids = np.array([h.hid for h in rhs], dtype=np.intp)
        self._rhs_blocks = range(len(rhs))
        self._homes0 = np.array(
            [h.home for h in graph.registry], dtype=np.intp
        )

        # Owner-computes placement per task.  Generation tasks were
        # submitted *before* the redistribution, so their node follows
        # the generation distribution of their tile tag (an index into
        # ``self._tiles``); every later task executes where its first
        # written handle lives (dag.py's owner-computes rule over the
        # post-redistribution homes).
        tile_index = {ij: k for k, ij in enumerate(self._tiles)}
        gen = [t.phase == "generation" for t in graph.tasks]
        self._is_gen = np.array(gen, dtype=bool)
        self._gen_tile = np.array(
            [tile_index[t.tag] if g else 0 for t, g in zip(graph.tasks, gen)],
            dtype=np.intp,
        )
        self._owner_hid = np.array(
            [0 if g else t.writes[0] for t, g in zip(graph.tasks, gen)],
            dtype=np.intp,
        )
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
        homes = self._homes0.copy()
        homes[self._tile_hids] = [fact_dist(i, j) for i, j in self._tiles]
        homes[self._rhs_hids] = [fact_dist(k, k) for k in self._rhs_blocks]
        gen_nodes = np.array(
            [gen_dist(i, j) for i, j in self._tiles], dtype=np.intp
        )
        nodes = np.where(
            self._is_gen, gen_nodes[self._gen_tile], homes[self._owner_hid]
        )
        return self._template.bind(nodes, homes)

    # -- measurement ----------------------------------------------------------------

    def simulate(self, plan: IterationPlan) -> SimulationResult:
        """Simulate one configuration (uncached, no noise).

        Reports to the tracer through
        :func:`~repro.runtime.simfast.traced_run`, as
        :meth:`FastSimulator.run` does, so a traced batched sweep carries
        the per-configuration records the obs stats layer aggregates --
        byte-identical to the naive path.
        """
        return traced_run(
            lambda: self._sim.run_plan(self.plan(plan.n_fact, plan.n_gen))
        )

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

