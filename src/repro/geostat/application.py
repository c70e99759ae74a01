"""The iterative multi-phase ExaGeoStat application.

:class:`ExaGeoStat` drives the main loop: at each iteration an adaptive
*controller* (any of :mod:`repro.strategies`) chooses how many nodes the
factorization phase uses; the iteration is executed (simulated) and its
duration fed back to the controller.  This is the paper's "real
implementation of the method to enable the application to adapt during
execution" (contribution iii); the controller's wall-clock overhead is
measured per iteration exactly as in Figure 7.

As in the paper's methodology, all distributions/durations for a given
node plan are precomputed (cached) after their first simulation -- by
the one :class:`~repro.measure.batch.ScenarioBatch` the application
builds on first use -- and observation noise is layered on top by a
pluggable noise model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

import numpy as np

from ..platform.cluster import Cluster
from ..runtime import PerfModel, SimulationResult
from ..workload import Workload
from .likelihood import golden_section_range_search
from .phases import IterationPlan
from .spatial import SpatialData

if TYPE_CHECKING:
    from ..measure.batch import ScenarioBatch

#: A controller proposes a factorization node count and observes durations.
#: (Duck-typed: every repro.strategies strategy satisfies it.)
Controller = object

#: Noise model: maps (true duration, rng) -> observed duration.
NoiseModel = Callable[[float, np.random.Generator], float]


@dataclass
class IterationRecord:
    """Bookkeeping for one main-loop iteration."""

    index: int
    n_fact: int
    n_gen: int
    duration: float
    controller_overhead: float
    theta: Optional[float] = None
    log_likelihood: Optional[float] = None


@dataclass
class RunResult:
    """Outcome of an adaptive run."""

    records: List[IterationRecord] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        """Sum of iteration durations."""
        return sum(r.duration for r in self.records)

    @property
    def total_overhead(self) -> float:
        """Total wall-clock time spent inside the controller."""
        return sum(r.controller_overhead for r in self.records)

    @property
    def chosen_counts(self) -> List[int]:
        """Factorization node counts chosen per iteration."""
        return [r.n_fact for r in self.records]


class ExaGeoStat:
    """Multi-phase iterative application over the simulated runtime.

    Parameters
    ----------
    cluster:
        The heterogeneous cluster.
    workload:
        Problem size (the "101" or "128" workload).
    perfmodel:
        Kernel duration model (defaults to the standard one).
    noise:
        Observation-noise model applied to each measured duration
        (default: none, i.e. deterministic like raw StarPU-SimGrid).
    seed:
        Seed of the noise RNG.
    """

    def __init__(
        self,
        cluster: Cluster,
        workload: Workload,
        perfmodel: Optional[PerfModel] = None,
        noise: Optional[NoiseModel] = None,
        seed: int = 0,
    ) -> None:
        self.cluster = cluster
        self.workload = workload
        self.perfmodel = perfmodel
        self.noise = noise
        self.rng = np.random.default_rng(seed)
        self._batch: Optional[ScenarioBatch] = None

    # -- measurement ----------------------------------------------------------------

    def _plans(self) -> "ScenarioBatch":
        """The :class:`~repro.measure.batch.ScenarioBatch` that simulates
        and memoizes every node plan, built on first use (imported here
        because :mod:`repro.measure` imports this package)."""
        if self._batch is None:
            from ..measure.batch import ScenarioBatch

            self._batch = ScenarioBatch(
                self.cluster, self.workload, self.perfmodel
            )
        return self._batch

    def simulate(self, plan: IterationPlan) -> SimulationResult:
        """Simulate one iteration with the given plan (uncached, no noise)."""
        return self._plans().simulate(plan)

    def measure(self, n_fact: int, n_gen: Optional[int] = None) -> float:
        """Duration of one iteration using ``n_fact`` factorization nodes.

        The deterministic simulation per plan is memoized by the batch
        ("all the possible distributions were precomputed", Section V);
        noise is sampled per call when a noise model is configured.
        """
        duration = self._plans().measure(n_fact, n_gen)
        if self.noise is not None:
            duration = self.noise(duration, self.rng)
        return max(duration, 0.0)

    # -- main loops -----------------------------------------------------------------

    def _loop(
        self,
        controller,
        steps: Iterable[Tuple[Optional[float], Optional[float]]],
        pairs: bool = False,
    ) -> RunResult:
        """One iteration per ``(theta, log_likelihood)`` step.

        The controller proposes ``n_fact`` (generation on every node), or
        ``(n_gen, n_fact)`` pairs when ``pairs`` is set, and observes the
        measured duration; its propose + observe time is the overhead.
        """
        result = RunResult()
        n_all = len(self.cluster)
        for it, (theta, loglik) in enumerate(steps):
            t0 = time.perf_counter()
            proposal = controller.propose()
            t1 = time.perf_counter()
            n_gen, n_fact = proposal if pairs else (n_all, proposal)
            duration = self.measure(n_fact, n_gen)
            t2 = time.perf_counter()
            controller.observe((n_gen, n_fact) if pairs else n_fact, duration)
            t3 = time.perf_counter()
            result.records.append(
                IterationRecord(
                    index=it,
                    n_fact=n_fact,
                    n_gen=n_gen,
                    duration=duration,
                    controller_overhead=(t1 - t0) + (t3 - t2),
                    theta=theta,
                    log_likelihood=loglik,
                )
            )
        return result

    @staticmethod
    def _steps(iterations: int):
        """``iterations`` steps without a likelihood evaluation."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        return repeat((None, None), iterations)

    def run(self, controller, iterations: int) -> RunResult:
        """Adaptive main loop: the controller picks n_fact per iteration."""
        return self._loop(controller, self._steps(iterations))

    def run_fixed(self, n_fact: int, iterations: int) -> RunResult:
        """Non-adaptive loop with a constant node count (baseline)."""

        class _Fixed:
            """Constant-count controller."""

            def propose(self) -> int:
                """Always the fixed count."""
                return n_fact

            def observe(self, n: int, duration: float) -> None:
                """Ignores feedback."""

        return self.run(_Fixed(), iterations)

    def run2d(self, controller, iterations: int) -> RunResult:
        """Adaptive loop over both phases: the controller proposes
        ``(n_gen, n_fact)`` pairs (the paper's future-work 2-D space)."""
        return self._loop(controller, self._steps(iterations), pairs=True)

    def run_with_likelihood(
        self,
        controller,
        data: SpatialData,
        theta_lo: float,
        theta_hi: float,
        iterations: int,
    ) -> RunResult:
        """Full pipeline: real theta optimization + adaptive node counts.

        Each iteration both evaluates the true log-likelihood of the next
        candidate theta (golden-section search over the Matern range, real
        numerics at ``data``'s scale) and simulates the iteration's
        duration at the platform scale.
        """
        return self._loop(
            controller,
            golden_section_range_search(data, theta_lo, theta_hi, iterations),
        )
