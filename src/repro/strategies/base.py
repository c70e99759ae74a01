"""Strategy interface and action space.

A strategy interacts with the application loop through two calls per
iteration: :meth:`Strategy.propose` returns the number of factorization
nodes to use, and :meth:`Strategy.observe` feeds back the measured
iteration duration.  The search space is the number of nodes ``n`` between
some minimum and ``N``, always taking the ``n`` fastest (Section IV).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..obs import get_tracer
from ..platform.cluster import Cluster


@dataclass(frozen=True)
class ActionSpace:
    """The discrete search space of a scenario.

    Attributes
    ----------
    actions:
        Allowed node counts, increasing (typically ``lo .. N``).
    n_total:
        Total nodes ``N`` (the application's default action).
    group_boundaries:
        Node counts at which each homogeneous group completes
        (used by UCB-struct and the GP dummy variables).
    lp_bound:
        Optional callable ``n -> seconds``: the LP iteration lower bound
        (used by GP-discontinuous).
    """

    actions: Tuple[int, ...]
    n_total: int
    group_boundaries: Tuple[int, ...] = ()
    lp_bound: Optional[Callable[[int], float]] = None

    def __post_init__(self) -> None:
        acts = list(self.actions)
        if not acts or acts != sorted(set(acts)) or acts[0] < 1:
            raise ValueError("actions must be increasing positive node counts")
        if acts[-1] != self.n_total:
            raise ValueError("the largest action must be N (all nodes)")

    @property
    def lo(self) -> int:
        """Smallest allowed node count."""
        return self.actions[0]

    def __len__(self) -> int:
        return len(self.actions)

    def clip(self, n: int) -> int:
        """Nearest allowed action to ``n``.

        Equidistant ties resolve to the *smaller* node count — a
        documented, deterministic choice (fewer nodes never hurts the
        iteration per Section IV's monotone communication cost, and the
        replayed experiments must be bit-reproducible regardless of how
        the underlying argmin breaks ties).
        """
        return min(self.actions, key=lambda a: (abs(a - n), a))

    def contract(self, max_n: int) -> "ActionSpace":
        """Sub-space surviving the loss of nodes above ``max_n``.

        Used by the fault-resilience layer when crashes shrink the
        platform: actions above ``max_n`` stop existing, ``n_total``
        becomes the largest surviving action (the class invariant), and
        group boundaries above it are dropped.  The LP bound callable is
        shared -- per-action bounds of surviving actions are unchanged
        by other nodes dying.  Contracting to at least the current
        ``n_total`` returns ``self`` (nothing was lost).  A single
        surviving action is a valid degenerate space; losing *every*
        action is an error the fault schedule validation should have
        caught upstream.
        """
        if max_n >= self.n_total:
            return self
        surviving = tuple(a for a in self.actions if a <= max_n)
        if not surviving:
            raise ValueError(
                f"no action survives contraction to max_n={max_n} "
                f"(smallest action is {self.actions[0]})"
            )
        return ActionSpace(
            actions=surviving,
            n_total=surviving[-1],
            group_boundaries=tuple(
                b for b in self.group_boundaries if b <= surviving[-1]
            ),
            lp_bound=self.lp_bound,
        )

    @classmethod
    def from_cluster(
        cls,
        cluster: Cluster,
        lo: int = 1,
        lp_bound: Optional[Callable[[int], float]] = None,
    ) -> "ActionSpace":
        """Action space over a cluster: counts ``lo .. N``."""
        n = len(cluster)
        lo = max(1, min(lo, n))
        return cls(
            actions=tuple(range(lo, n + 1)),
            n_total=n,
            group_boundaries=cluster.group_boundaries,
            lp_bound=lp_bound,
        )


class ArmHistory:
    """Observation bookkeeping shared by every arm type.

    Integer arms (:class:`Strategy`) and ``(n_gen, n_fact)`` pair arms
    (:class:`~repro.strategies.gp_2d.GP2DStrategy`) keep the same
    history, per-arm statistics and iteration counter.
    """

    def _reset_history(self) -> None:
        self.xs: List[Hashable] = []
        self.ys: List[float] = []
        self._stats: Dict[Hashable, List[float]] = {}
        #: Memo of ``mean_duration``; observing an arm drops its entry.
        self._means: Dict[Hashable, float] = {}

    def _record(self, arm: Hashable, duration: float) -> None:
        """Append one observation of ``arm``."""
        self.xs.append(arm)
        self.ys.append(duration)
        self._stats.setdefault(arm, []).append(duration)
        self._means.pop(arm, None)

    @property
    def iteration(self) -> int:
        """Number of completed observations."""
        return len(self.ys)

    def mean_duration(self, arm: Hashable) -> float:
        """Mean observed duration of ``arm``."""
        mean = self._means.get(arm)
        if mean is None:
            values = self._stats.get(arm)
            if not values:
                raise KeyError(f"action {arm} has no observations")
            mean = self._means[arm] = float(np.mean(values))
        return mean

    def times_selected(self, arm: Hashable) -> int:
        """How often ``arm`` has been measured so far."""
        return len(self._stats.get(arm, ()))

    def best_observed(self):
        """Arm with the lowest mean observed duration."""
        if not self._stats:
            raise RuntimeError("no observations yet")
        return min(self._stats, key=lambda a: (self.mean_duration(a), a))


@dataclass
class Strategy(ArmHistory):
    """Base class for exploration strategies.

    Subclasses implement :meth:`_next_action`; bookkeeping (history,
    per-action statistics, iteration counter) comes from
    :class:`ArmHistory`.
    """

    space: ActionSpace
    seed: int = 0
    name: str = field(default="strategy", init=False)

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self._reset_history()
        #: Per-iteration strategy overhead: time spent inside propose()
        #: plus observe() for each completed iteration (the Figure 7
        #: quantity, self-timed so every caller gets it for free).
        self.overheads: List[float] = []
        self._propose_elapsed = 0.0

    # -- public protocol ---------------------------------------------------------

    def _clock(self) -> float:
        """Overhead timestamp: trace clock when tracing, else monotonic.

        Routing through the trace clock means a deterministic (tick)
        trace logs deterministic overheads; untraced runs pay only a
        ``perf_counter`` read, and either way the value never feeds back
        into the decision process (the inertness contract).
        """
        tracer = get_tracer()
        if tracer.enabled:
            return tracer.clock.now()
        return time.perf_counter()

    def propose(self) -> int:
        """Node count to use for the next iteration."""
        t0 = self._clock()
        n = int(self._next_action())
        if n not in self._action_set():
            raise RuntimeError(
                f"{self.name} proposed {n}, outside the action space"
            )
        self._propose_elapsed = self._clock() - t0
        return n

    def observe(self, n: int, duration: float) -> None:
        """Feed back the measured duration of an iteration run with ``n``."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        tracer = get_tracer()
        # The pick used beta_t at the pre-observation iteration count: read
        # it for the decision log before appending, outside the overhead.
        beta = (float(self.current_beta())
                if tracer.enabled and hasattr(self, "current_beta") else None)
        t0 = self._clock()
        self._record(int(n), float(duration))
        self._after_observe(int(n), float(duration))
        overhead = self._propose_elapsed + (self._clock() - t0)
        self._propose_elapsed = 0.0
        self.overheads.append(overhead)
        if tracer.enabled:
            fields: Dict[str, object] = {
                "strategy": self.name,
                "iteration": len(self.ys),
                "arm": int(n),
                "duration": float(duration),
                "overhead_s": overhead,
            }
            fields.update(self.decision_telemetry(int(n), beta))
            tracer.event("decision", **fields)

    # -- hooks ----------------------------------------------------------------------

    def _next_action(self) -> int:
        raise NotImplementedError

    def _after_observe(self, n: int, duration: float) -> None:
        """Optional subclass hook."""

    def _action_set(self) -> frozenset:
        return frozenset(self.space.actions)

    def decision_telemetry(self, n: int,
                           beta: Optional[float]) -> Dict[str, float]:
        """Model-state fields for the decision log (empty for model-free).

        GP strategies (anything exposing a fitted ``gp`` plus the
        ``surrogate``/``current_beta`` protocol of Figure 4) report the
        posterior mean/sd at the chosen arm and the LCB acquisition value
        the choice was based on, at the pick's ``beta`` (``None`` for
        strategies without ``current_beta``).  Read-only: the queries
        are deterministic predictions, so logging never perturbs the run.
        """
        if getattr(self, "gp", None) is None:
            return {}
        if beta is None or not hasattr(self, "surrogate"):
            return {}
        mean, sd = self.surrogate(np.asarray([float(n)]))
        return {
            "posterior_mean": float(mean[0]),
            "posterior_sd": float(sd[0]),
            "acquisition": float(mean[0] - math.sqrt(beta) * sd[0]),
        }


@dataclass
class AllNodesStrategy(Strategy):
    """The application's standard behaviour: always use all nodes.

    The Figure 6 baseline (the top dashed line).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.name = "All-nodes"

    def _next_action(self) -> int:
        return self.space.n_total


@dataclass
class OracleStrategy(Strategy):
    """Clairvoyant baseline: always plays a given action.

    With the best action passed in, this is the Figure 6 bottom dashed
    line ("the best option when knowing the best configuration upfront").
    """

    best_action: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        self.name = "Oracle"
        if self.best_action not in self.space.actions:
            raise ValueError("best_action must be in the action space")

    def _next_action(self) -> int:
        return self.best_action
