"""Resilient strategy wrapper: detect change, re-explore, survive crashes.

:class:`ResilientStrategy` composes with every registered strategy (it
is itself built through ``make_strategy(inner, ...)``), adding the three
behaviours a non-stationary platform demands:

* **bounded re-exploration** -- a :class:`PageHinkleyDetector` watches
  the observed duration stream; on a detected change point the inner
  strategy is rebuilt with a fresh, deterministically derived seed and
  (for replay-safe inners: GP-family models and pure bookkeeping
  bandits) warm-started from the most recent observation window.  Stale
  pre-change observations are forgotten -- the ISSUE's "observation
  window reset".  A cooldown bounds how often re-exploration can fire.
* **crash handling** -- on an :class:`~repro.faults.injector.FaultEvent`
  announcing fewer usable nodes, the wrapper contracts its
  :class:`~repro.strategies.base.ActionSpace` (see
  :meth:`ActionSpace.contract`), rebuilds the inner strategy on the
  surviving actions and re-clips any pending proposal, so it never pays
  the injector's degraded-proposal penalty.  When nodes return, the
  space expands back the same way.
* **retry with backoff** -- an observation far above the arm's own
  history (a transient failure) triggers up to ``max_retries``
  immediate retries of the same arm; if the failures persist the arm is
  quarantined for an exponentially growing window
  (``backoff_base * 2**strikes`` iterations, capped), during which
  inner proposals of that arm are redirected to the nearest
  non-quarantined action.

The wrapper is registered for every paper strategy as
``Resilient(<name>)`` in :mod:`repro.strategies.registry`, so the
registry-wide determinism smoke test and the strategy-contract test
apply to it automatically.  All decisions are pure functions of the observation
stream and the seed: same seed, same events -> same actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..obs import get_tracer
from ..strategies.base import ActionSpace, Strategy
from .detector import PageHinkleyDetector
from .injector import FaultEvent

#: Prime stride decorrelating the seeds of successive inner rebuilds.
REBUILD_SEED_STRIDE = 104729


def resilient_name(inner: str) -> str:
    """Registry name of the wrapped variant of ``inner``."""
    return f"Resilient({inner})"


@dataclass
class ResilientStrategy(Strategy):
    """Decorator strategy: change detection + crash contraction + retries.

    Parameters
    ----------
    inner:
        Registry name of the wrapped strategy.
    window:
        Recent observations replayed into a rebuilt inner (replay-safe
        inners only).  The default is the top-ranked value of the
        resilience replay sweep (frozen ranked table in EXPERIMENTS.md,
        "Resilience replay sweep"): ``window=40`` beats the previous
        ``window=20`` on mean expected regret across the canned schedule
        family on every scenario swept (a larger replay keeps more
        post-change evidence, so a rebuilt inner converges faster).
    cooldown:
        Minimum iterations between two detector-triggered rebuilds.
        The sweep found regret indifferent to cooldown in 4..16
        (re-exploration fires about once per fault regime, so the bound
        rarely binds); the pinned 8 is retained.
    detector_delta / detector_threshold:
        Page-Hinkley drift tolerance and alarm threshold, in noise-scale
        units (see :mod:`repro.faults.detector`).  The defaults are the
        top-ranked Page-Hinkley configuration of the detector sweep
        (frozen ranked table in EXPERIMENTS.md, "Detector sweep"):
        ``delta=0.25``, ``threshold=6.0`` roughly halves detection
        latency and more than doubles mean F1 against the canned
        schedule family compared to the previous ``delta=0.5``,
        ``threshold=12.0``.
    max_retries:
        Immediate same-arm retries after a transient failure.
    failure_factor:
        An observation above ``failure_factor`` times the arm's median
        history counts as a transient failure.
    backoff_base / max_backoff:
        Quarantine length after exhausted retries: ``backoff_base *
        2**(strikes - 1)`` iterations, capped at ``max_backoff``.
    """

    inner: str = "GP-discontinuous"
    window: int = 40
    cooldown: int = 8
    detector_delta: float = 0.25
    detector_threshold: float = 6.0
    max_retries: int = 1
    failure_factor: float = 3.0
    backoff_base: int = 2
    max_backoff: int = 16

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.failure_factor <= 1.0:
            raise ValueError("failure_factor must be > 1")
        self.name = resilient_name(self.inner)
        self.full_space = self.space
        self.current_space = self.space
        self.detector = PageHinkleyDetector(
            delta=self.detector_delta, threshold=self.detector_threshold
        )
        #: Diagnostics: how often each resilience path fired.
        self.reexplorations = 0
        self.contractions = 0
        self.retries = 0
        self.quarantined_total = 0
        self._rebuilds = 0
        self._last_reexplore = -(10 ** 9)
        self._retry_arm: Optional[int] = None
        self._retry_count = 0
        self._quarantine: Dict[int, int] = {}   # arm -> expiry iteration
        self._strikes: Dict[int, int] = {}      # arm -> failure episodes
        self._warm_pending: Optional[int] = None
        self._inner = self._build_inner(self.current_space, replay=False)

    # -- inner lifecycle ---------------------------------------------------------

    def _build_inner(self, space: ActionSpace, replay: bool) -> Strategy:
        from ..strategies.registry import make_strategy

        seed = self.seed + REBUILD_SEED_STRIDE * self._rebuilds
        self._rebuilds += 1
        self._warm_pending = None
        inner = make_strategy(self.inner, space, seed=seed)
        if replay and self._replay_safe(inner):
            self._warm_forward(inner, space)
        return inner

    def _warm_forward(self, inner: Strategy, space: ActionSpace) -> None:
        """Warm-start a rebuilt inner through its *own* decision cycle.

        Strategies drive their initial designs off their proposals (the
        GP family pops its design queue when the proposed arm comes back
        observed), so passively replaying history leaves the design
        queue intact and the rebuilt inner would burn real iterations
        re-measuring arms the window already covers.  Instead the inner
        is stepped through propose/observe virtually: each proposal is
        answered from the recorded window (per-arm FIFO, oldest first)
        until it asks for an arm the window has no sample of -- that
        proposal is kept as ``_warm_pending`` and becomes the first real
        action, so no propose call is ever discarded.
        """
        allowed = set(space.actions)
        pools: Dict[int, List[float]] = {}
        for x, y in zip(self.xs[-self.window:], self.ys[-self.window:]):
            if x in allowed:
                pools.setdefault(int(x), []).append(float(y))
        budget = sum(len(v) for v in pools.values())
        for _ in range(budget):
            n = inner.propose()
            pool = pools.get(n)
            if not pool:
                self._warm_pending = n
                return
            inner.observe(n, pool.pop(0))

    @staticmethod
    def _replay_safe(inner: Strategy) -> bool:
        """Whether the virtual propose/observe warm-start is sound.

        Model-based strategies (anything exposing the fitted ``gp``
        protocol) refit from their observation lists, and strategies
        that keep the base-class observe hook do pure bookkeeping; both
        tolerate repeated propose calls answered from history.  Stateful
        searchers (DC, Brent, Right-Left: their observe hook drives a
        search automaton) can dead-end when fed durations from a regime
        their automaton never probed, so they restart cold instead --
        their re-exploration is cheap anyway.
        """
        if getattr(inner, "gp", "missing") != "missing":
            return True
        return type(inner)._after_observe is Strategy._after_observe

    def _reexplore(self, replay: bool = True) -> None:
        self.reexplorations += 1
        self._last_reexplore = self.iteration
        self._inner = self._build_inner(self.current_space, replay=replay)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("fault.reexplore")
            tracer.event(
                "resilience",
                strategy=self.name,
                action="reexplore",
                iteration=self.iteration,
            )

    # -- platform notifications ----------------------------------------------------

    def on_fault_event(self, event: FaultEvent) -> None:
        """React to the runtime's cluster-state announcement.

        Contracts (or re-expands) the action space when the feasible
        maximum changed, rebuilding the inner strategy on the surviving
        actions; the warm-start replay keeps only observations of
        still-feasible arms, which re-clips any pending proposal the
        inner had queued for a crashed configuration.
        """
        cap = min(event.max_feasible, self.full_space.n_total)
        if cap == self.current_space.n_total:
            return
        self.current_space = self.full_space.contract(cap)
        self.contractions += 1
        # A retry or quarantine against a no-longer-feasible arm is moot.
        allowed = set(self.current_space.actions)
        if self._retry_arm is not None and self._retry_arm not in allowed:
            self._retry_arm = None
            self._retry_count = 0
        self._quarantine = {
            arm: until for arm, until in self._quarantine.items()
            if arm in allowed
        }
        self._inner = self._build_inner(self.current_space, replay=True)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("fault.contract")
            tracer.event(
                "resilience",
                strategy=self.name,
                action="contract",
                iteration=self.iteration,
                max_feasible=cap,
                crashed=len(event.crashed),
            )

    # -- decision loop ------------------------------------------------------------

    def _next_action(self) -> int:
        if len(self.current_space) == 1:
            # Crashes left a single feasible action: no decision to make,
            # and no inner to consult (some searchers dead-end on a
            # degenerate space before their first observation).
            return self.current_space.actions[0]
        if (
            self._retry_arm is not None
            and self._retry_arm in self.current_space.actions
        ):
            return self._retry_arm
        if self._warm_pending is not None:
            n, self._warm_pending = self._warm_pending, None
            if n in frozenset(self.current_space.actions):
                return self._dodge_quarantine(n)
        n = self._inner.propose()
        if n not in frozenset(self.current_space.actions):
            # Safety clip: a pending proposal from before a contraction.
            n = self.current_space.clip(n)
        return self._dodge_quarantine(n)

    def _dodge_quarantine(self, n: int) -> int:
        until = self._quarantine.get(n)
        if until is None or self.iteration >= until:
            return n
        open_arms = [
            a for a in self.current_space.actions
            if self.iteration >= self._quarantine.get(a, 0)
        ]
        if not open_arms:
            return n
        # Nearest open arm; equidistant ties to the smaller count, the
        # ActionSpace.clip convention.
        return min(open_arms, key=lambda a: (abs(a - n), a))

    def _after_observe(self, n: int, duration: float) -> None:
        self._inner.observe(n, duration)
        self._register_failure(n, duration)
        alarm = self.detector.update(duration)
        if alarm and (self.iteration - self._last_reexplore) >= self.cooldown:
            self._reexplore(replay=True)

    def _register_failure(self, n: int, duration: float) -> None:
        history = self._stats.get(n, [])[:-1]
        if len(history) < 2:
            return
        if duration <= self.failure_factor * float(np.median(history)):
            if self._retry_arm == n:
                # The retry came back healthy: episode over.
                self._retry_arm = None
                self._retry_count = 0
                self._strikes.pop(n, None)
            return
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("fault.transient")
        if self._retry_arm == n:
            self._retry_count += 1
            if self._retry_count > self.max_retries:
                self._quarantine_arm(n)
        elif self.max_retries > 0:
            self._retry_arm = n
            self._retry_count = 1
            self.retries += 1
        else:
            self._quarantine_arm(n)

    def _quarantine_arm(self, n: int) -> None:
        self._retry_arm = None
        self._retry_count = 0
        strikes = self._strikes.get(n, 0) + 1
        self._strikes[n] = strikes
        span = min(self.backoff_base * 2 ** (strikes - 1), self.max_backoff)
        self._quarantine[n] = self.iteration + span
        self.quarantined_total += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("fault.quarantine")
            tracer.event(
                "resilience",
                strategy=self.name,
                action="quarantine",
                iteration=self.iteration,
                arm=int(n),
                span=int(span),
            )

    # -- introspection ------------------------------------------------------------

    def resilience_summary(self) -> Dict[str, int]:
        """Counters of every resilience path (campaign table columns)."""
        return {
            "reexplorations": self.reexplorations,
            "contractions": self.contractions,
            "retries": self.retries,
            "quarantines": self.quarantined_total,
            "alarms": len(self.detector.alarms),
        }
