"""2-D GP strategy: learn generation *and* factorization node counts.

The paper's future work (Section VIII): "the modeling of the 2D space
considering both phases, as there are some scenarios that using all the
nodes for the generation also degrades performance (as shown in
Figure 8)".  This strategy extends GP-discontinuous's ideas to the pair
``(n_gen, n_fact)``:

* the LP baseline generalizes to ``max(LP_gen(n_gen), LP_fact(n_fact))``
  and still prunes pairs that cannot beat the first all-nodes iteration;
* the trend is linear in both coordinates (the discontinuity dummies are
  omitted: the 2-D space is explored coarsely, so the trend stays small);
* theta is fixed to one (normalized) domain span per coordinate and
  alpha to the sample variance, as in 1-D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..gp import Exponential, GaussianProcess, Linear2DTrend, estimate_noise_variance
from .base import ArmHistory
from .gp_ucb import beta_t

#: One action: (n_gen, n_fact).
Pair = Tuple[int, int]


@dataclass
class GP2DStrategy(ArmHistory):
    """GP bandit over (generation, factorization) node-count pairs.

    Parameters
    ----------
    pairs:
        Allowed (n_gen, n_fact) actions; must contain ``(N, N)``.
    n_total:
        Total node count N.
    lp_bound:
        Callable ``(n_gen, n_fact) -> seconds`` iteration lower bound.
    """

    pairs: Sequence[Pair]
    n_total: int
    lp_bound: Optional[Callable[[int, int], float]] = None
    seed: int = 0
    theta: float = 1.0
    noise_fallback: float = 1e-4
    name: str = field(default="GP-2D", init=False)

    def __post_init__(self) -> None:
        self.pairs = tuple((int(g), int(f)) for g, f in self.pairs)
        if (self.n_total, self.n_total) not in self.pairs:
            raise ValueError("pairs must contain the all-nodes action (N, N)")
        self.rng = np.random.default_rng(self.seed)
        self._reset_history()
        self.gp: Optional[GaussianProcess] = None
        self._bound_cache: Optional[np.ndarray] = None
        self._init_queue: List[Pair] = [(self.n_total, self.n_total)]
        self._design_built = False

    # -- bookkeeping -------------------------------------------------------------

    def observe(self, pair: Pair, duration: float) -> None:
        """Record the measured duration of one iteration run with ``pair``."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        pair = (int(pair[0]), int(pair[1]))
        self._record(pair, float(duration))
        if self._init_queue and self._init_queue[0] == pair:
            self._init_queue.pop(0)

    # -- search space ------------------------------------------------------------

    def _lp(self, pairs) -> np.ndarray:
        if self.lp_bound is None:
            return np.zeros(len(pairs))
        return np.asarray([self.lp_bound(g, f) for g, f in pairs], dtype=float)

    def allowed_pairs(self) -> List[Pair]:
        """Pairs whose LP bound can still beat the all-nodes duration."""
        all_nodes = (self.n_total, self.n_total)
        if self.lp_bound is None or all_nodes not in self._stats:
            return list(self.pairs)
        f_n = self.mean_duration(all_nodes)
        allowed = [p for p in self.pairs if self.lp_bound(*p) < f_n]
        if all_nodes not in allowed:
            allowed.append(all_nodes)
        return allowed

    def _build_design(self) -> List[Pair]:
        """Corner + centre design over the allowed region."""
        allowed = self.allowed_pairs()
        gens = sorted({g for g, _ in allowed})
        facts = sorted({f for _, f in allowed})

        def closest(g, f):
            return min(allowed, key=lambda p: (p[0] - g) ** 2 + (p[1] - f) ** 2)

        centre = closest((gens[0] + gens[-1]) / 2, (facts[0] + facts[-1]) / 2)
        design = [
            closest(gens[0], facts[0]),
            closest(gens[-1], facts[0]),
            closest(gens[0], facts[-1]),
            centre,
            centre,  # replicate: feeds the noise estimator
        ]
        out, seen = [], {(self.n_total, self.n_total)}
        for p in design:
            if p not in seen or p == centre:
                out.append(p)
                seen.add(p)
        return out

    # -- model -------------------------------------------------------------------

    def refit(self) -> GaussianProcess:
        """Fit the 2-D surrogate on the LP residuals of all observations."""
        x = np.asarray(self.xs, dtype=float)
        lp = self._lp(self.xs)
        targets = np.asarray(self.ys) - lp
        keys = [f"{g},{f}" for g, f in self.xs]
        noise = estimate_noise_variance(keys, targets, fallback=self.noise_fallback)
        span = max(self.n_total - 1, 1)
        gp = GaussianProcess(
            kernel=Exponential(theta=self.theta * span),
            trend=Linear2DTrend(),
            alpha=float(max(np.var(targets), 1e-8)),
            noise_var=noise,
            optimize=False,
        )
        gp.fit(x, targets)
        self.gp = gp
        return gp

    def propose(self) -> Pair:
        """(n_gen, n_fact) to use for the next iteration."""
        if not self._design_built and (self.n_total, self.n_total) in self._stats:
            self._init_queue = self._build_design()
            self._design_built = True
        if self._init_queue:
            return self._init_queue[0]
        allowed = self.allowed_pairs()
        if len(self.xs) < 4:
            return allowed[self.rng.integers(len(allowed))]
        gp = self.refit()
        grid = np.asarray(allowed, dtype=float)
        mean, sd = gp.predict(grid)
        beta = beta_t(max(1, self.iteration), len(self.pairs))
        acq = self._lp(allowed) + mean - math.sqrt(beta) * sd
        return allowed[int(np.argmin(acq))]
