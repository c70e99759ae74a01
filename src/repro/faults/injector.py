"""Deterministic fault injection at the measurement/model boundary.

The evaluation path never touches live hardware: iteration durations are
resampled from a :class:`~repro.measure.bank.MeasurementBank`, and the
banks themselves come from the deterministic simulator through
:class:`~repro.runtime.perfmodel.PerfModel`.  Faults therefore inject at
exactly that boundary:

:class:`FaultInjector` perturbs the *resampled* duration of each
iteration -- a pure function of ``(iteration, action)`` given the
schedule, so every cell of the harness in :mod:`repro.evaluate.parallel`
sees the same perturbations whatever ran before it.  Faults never reach
the simulator, so the duration cache only ever holds stationary
durations.

The injector is **stateless across cells**: it precomputes per-iteration
state (crash counts, jittered interference shifts) once at construction
from the schedule and its seed, then answers pure queries, so one
instance serves every cell of a campaign.

Observability: when a tracer is active, applied perturbations emit
``fault.*`` counters and a per-iteration ``fault`` event through the
standard :mod:`repro.obs` tracer -- captured per cell and
merged in cell order, so trace bytes are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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
                tracer.count("fault.crash.degraded")
            # Exact sentinels: an untouched injection carries precisely
            # scale 1.0 / shift 0.0 by construction, never a computed
            # approximation of them.
            if injection.scale != 1.0:
                tracer.count("fault.scaled")
            if injection.shift != 0.0:
                tracer.count("fault.shifted")
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
