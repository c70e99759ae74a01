"""Deterministic fault injection at the measurement/model boundary.

The evaluation path never touches live hardware: iteration durations are
resampled from a :class:`~repro.measure.bank.MeasurementBank`, and the
banks themselves come from the deterministic simulator through
:class:`~repro.runtime.perfmodel.PerfModel`.  Faults therefore inject at
exactly that boundary:

* :class:`FaultInjector` perturbs the *resampled* duration of each
  iteration -- a pure function of ``(iteration, action)`` given the
  schedule, so every cell of the harness in :mod:`repro.evaluate.parallel`
  sees the same perturbations whatever ran before it;
* :func:`faulted_perfmodel` derives a degraded
  :class:`~repro.runtime.perfmodel.PerfModel` snapshot for
  timeline-level studies, whose :meth:`fingerprint` differs from the
  stationary model -- combined with the ``faults`` field of
  :func:`repro.evaluate.cache.simulation_fingerprint` this keeps the
  duration cache honest (a stationary cached duration can never be
  served for a faulted plan).

The injector is **stateless across cells**: it precomputes per-iteration
state (crash counts, jittered interference shifts) once at construction
from the schedule and its seed, then answers pure queries, so one
instance serves every cell of a campaign.

Observability: when a tracer is active, applied perturbations emit
``fault.*`` counters and a per-iteration ``fault`` event through the
standard :mod:`repro.obs` registry/tracer -- captured per cell and
merged in cell order, so trace bytes are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_tracer
from .models import FaultSchedule

#: Seed-sequence tag of the interference jitter stream (stable content
#: tag in the spirit of repro.evaluate.parallel.BASELINE_TAG).
JITTER_TAG = 0xFA17


@dataclass(frozen=True)
class Injection:
    """The planned perturbation of one iteration.

    ``effective_n`` is the configuration that actually runs: the
    proposed action clipped to the surviving nodes when crashes shrank
    the feasible space.  ``scale``/``shift`` transform the resampled
    duration; ``degraded`` marks a proposal that could not run as
    requested (its crash penalty is already folded into ``scale``).
    """

    iteration: int
    proposed_n: int
    effective_n: int
    scale: float
    shift: float
    degraded: bool
    max_feasible: int


@dataclass(frozen=True)
class FaultEvent:
    """Platform notification delivered to strategies before an iteration.

    Mirrors what a real runtime announces: which nodes are currently
    usable.  Strategies without an ``on_fault_event`` hook ignore it --
    the paper's raw strategies stay byte-identical to their stationary
    behaviour; :class:`repro.faults.resilience.ResilientStrategy`
    contracts its action space on it.
    """

    iteration: int
    max_feasible: int
    crashed: Tuple[int, ...]


class FaultInjector:
    """Applies a :class:`FaultSchedule` to one bank's evaluation run.

    Parameters
    ----------
    schedule:
        The declarative fault schedule.
    actions:
        Allowed node counts of the bank (increasing; last one = N).
    iterations:
        Run length; per-iteration state is precomputed over it.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        actions: Sequence[int],
        iterations: int,
    ) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.schedule = schedule
        self.actions = tuple(int(a) for a in actions)
        if not self.actions:
            raise ValueError("actions must be non-empty")
        self.n_total = self.actions[-1]
        self.iterations = int(iterations)
        schedule.validate_for(self.n_total, lo=self.actions[0])
        # Precomputed per-iteration crash state and interference shifts:
        # pure functions of (schedule, iterations), never of the worker.
        self._crashed: List[Tuple[int, ...]] = [
            schedule.crashed_nodes(t) for t in range(self.iterations)
        ]
        self._shift = self._interference_shifts()

    def _interference_shifts(self) -> np.ndarray:
        """Additive per-iteration shift, jitter drawn from the seed."""
        shifts = np.zeros(self.iterations)
        bursts = self.schedule.of_kind("interference")
        for index, burst in enumerate(bursts):
            if burst.jitter > 0.0:
                rng = np.random.default_rng(
                    (self.schedule.seed, JITTER_TAG, index)
                )
                factors = 1.0 + burst.jitter * rng.uniform(
                    -1.0, 1.0, size=self.iterations
                )
            else:
                factors = np.ones(self.iterations)
            for t in range(self.iterations):
                if burst.active(t):
                    shifts[t] += burst.magnitude_s * factors[t]
        return shifts

    # -- feasibility --------------------------------------------------------------

    def crashed_at(self, iteration: int) -> Tuple[int, ...]:
        """Node ranks down at ``iteration``."""
        return self._crashed[iteration]

    def max_feasible(self, iteration: int) -> int:
        """Largest node count that can actually run at ``iteration``."""
        down = len(self._crashed[iteration])
        feasible = [a for a in self.actions if a <= self.n_total - down]
        return feasible[-1] if feasible else self.actions[0]

    def feasible_actions(self, iteration: int) -> Tuple[int, ...]:
        """Actions that can run as requested at ``iteration``."""
        cap = self.max_feasible(iteration)
        return tuple(a for a in self.actions if a <= cap)

    def event_for(self, iteration: int) -> FaultEvent:
        """The platform notification preceding ``iteration``."""
        return FaultEvent(
            iteration=iteration,
            max_feasible=self.max_feasible(iteration),
            crashed=self._crashed[iteration],
        )

    # -- perturbation -------------------------------------------------------------

    def plan(self, iteration: int, proposed_n: int) -> Injection:
        """Plan the perturbation of one iteration (pure; no tracing)."""
        if not 0 <= iteration < self.iterations:
            raise IndexError(f"iteration {iteration} outside the run")
        cap = self.max_feasible(iteration)
        effective = proposed_n
        scale = 1.0
        degraded = False
        if proposed_n > cap:
            effective = cap
            degraded = True
            penalties = [
                f.penalty for f in self.schedule.of_kind("crash")
                if f.active(iteration)
            ]
            scale *= max(penalties) if penalties else 1.0
        for slow in self.schedule.of_kind("slowdown"):
            if slow.active(iteration) and slow.node <= effective:
                scale *= 1.0 / slow.gflops_factor
        for net in self.schedule.of_kind("network"):
            if net.active(iteration):
                comm_frac = net.comm_share * (
                    (effective - 1) / max(self.n_total - 1, 1)
                )
                scale *= 1.0 + comm_frac * (1.0 / net.bandwidth_factor - 1.0)
        return Injection(
            iteration=iteration,
            proposed_n=int(proposed_n),
            effective_n=int(effective),
            scale=float(scale),
            shift=float(self._shift[iteration]),
            degraded=degraded,
            max_feasible=cap,
        )

    def apply(self, injection: Injection, duration: float) -> float:
        """Perturbed duration of one iteration (emits ``fault.*`` obs)."""
        perturbed = max(duration * injection.scale + injection.shift, 0.0)
        tracer = get_tracer()
        if tracer.enabled:
            if injection.degraded:
                tracer.registry.counter("fault.crash.degraded").inc()
            # Exact sentinels: an untouched injection carries precisely
            # scale 1.0 / shift 0.0 by construction, never a computed
            # approximation of them.
            if injection.scale != 1.0:
                tracer.registry.counter("fault.scaled").inc()
            if injection.shift != 0.0:
                tracer.registry.counter("fault.shifted").inc()
            if (injection.degraded
                    or injection.scale != 1.0
                    or injection.shift != 0.0):
                tracer.event(
                    "fault",
                    iteration=injection.iteration,
                    proposed_n=injection.proposed_n,
                    effective_n=injection.effective_n,
                    scale=injection.scale,
                    shift=injection.shift,
                    degraded=injection.degraded,
                )
        return perturbed

    def perturb(self, iteration: int, proposed_n: int, duration: float) -> float:
        """Convenience: :meth:`plan` + :meth:`apply` in one call."""
        return self.apply(self.plan(iteration, proposed_n), duration)

    # -- expected-value queries (regret accounting) -------------------------------

    def expected_duration(
        self, iteration: int, proposed_n: int, means: Dict[int, float]
    ) -> float:
        """Expected faulted duration of proposing ``proposed_n``.

        ``means`` maps action -> stationary mean duration (the bank's
        true means); the expectation of the uniform interference jitter
        is its centre, so the precomputed shift is reused as-is.
        """
        injection = self.plan(iteration, proposed_n)
        base = means[injection.effective_n]
        return max(base * injection.scale + injection.shift, 0.0)

    def oracle_duration(
        self, iteration: int, means: Dict[int, float]
    ) -> Tuple[int, float]:
        """Best feasible action and its expected faulted duration.

        The clairvoyant-under-faults reference of the campaign regret
        tables: at every iteration the oracle plays the feasible action
        with the lowest expected perturbed duration (smaller action on
        ties, matching :meth:`ActionSpace.clip` determinism).
        """
        best = min(
            self.feasible_actions(iteration),
            key=lambda a: (self.expected_duration(iteration, a, means), a),
        )
        return best, self.expected_duration(iteration, best, means)

    def fingerprint(self) -> str:
        """Content hash: the schedule's (the geometry adds nothing)."""
        return self.schedule.fingerprint()


def faulted_perfmodel(
    base,
    schedule: FaultSchedule,
    iteration: int,
    n_nodes: Optional[int] = None,
):
    """Degraded :class:`PerfModel` snapshot under the faults at ``iteration``.

    For timeline-level studies (``repro timeline`` on a faulted
    platform): every kernel efficiency is scaled by the product of the
    active slowdowns' ``gflops_factor`` (the lock-step approximation of
    :class:`~repro.faults.models.NodeSlowdown`, applied when the slowed
    node is inside the ``n_nodes`` working set -- all nodes when
    ``n_nodes`` is None), and active interference adds to the per-task
    overhead.  The returned model is a plain frozen ``PerfModel``, so
    its :meth:`fingerprint` reflects the degradation and the duration
    cache keys faulted simulations separately from stationary ones.
    """
    from ..runtime.perfmodel import PerfModel

    factor = 1.0
    for slow in schedule.of_kind("slowdown"):
        included = n_nodes is None or slow.node <= n_nodes
        if slow.active(iteration) and included:
            factor *= slow.gflops_factor
    overhead = base.overhead_s
    for burst in schedule.of_kind("interference"):
        if burst.active(iteration):
            overhead += burst.magnitude_s * 1e-3
    # Exact sentinel: no active fault leaves factor at precisely 1.0.
    if factor == 1.0 and overhead == base.overhead_s:
        return base
    efficiency = {
        key: eff * factor for key, eff in base.efficiency.items()
    }
    return PerfModel(efficiency=efficiency, overhead_s=overhead)
