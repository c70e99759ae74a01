"""GP-EI: Expected-Improvement variant of the GP strategies.

The paper restricts itself to the UCB acquisition (no-regret guarantees,
Eq. 2); standard Bayesian optimization prefers Expected Improvement.
This variant swaps the acquisition rule while keeping everything else of
GP-discontinuous (LP baseline, bounds, dummies), so the two acquisition
philosophies can be compared on the paper's scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..gp import expected_improvement
from .gp_discontinuous import GPDiscontinuousStrategy


@dataclass
class GPEIStrategy(GPDiscontinuousStrategy):
    """GP-discontinuous with Expected Improvement acquisition.

    ``epsilon`` forces occasional exploration: EI can collapse to pure
    exploitation once the incumbent looks unbeatable, which has no
    no-regret guarantee -- the paper's reason for preferring UCB.
    """

    epsilon: float = 0.05

    def __post_init__(self) -> None:
        super().__post_init__()
        self.name = "GP-EI"

    def _next_action(self) -> int:
        if not self._design_built and self.space.n_total in self._stats:
            self._init_queue = self._build_design()
            self._design_built = True
        while self._init_queue:
            candidate = self._init_queue[0]
            if candidate in self._action_set():
                return candidate
            self._init_queue.pop(0)
        if len(self.xs) < self._min_points():
            allowed = [int(a) for a in self._allowed_actions()]
            unmeasured = [a for a in allowed if a not in self._stats]
            if unmeasured:
                mid = (allowed[0] + allowed[-1]) / 2.0
                return min(unmeasured, key=lambda a: abs(a - mid))
            return self.best_observed()
        if self.rng.random() < self.epsilon:
            allowed = self._allowed_actions()
            return int(allowed[self.rng.integers(len(allowed))])
        gp = self.refit()
        grid = self._allowed_actions()
        mean, sd = gp.predict(grid)
        mean = mean + self._baseline(grid)
        best = min(
            self.mean_duration(int(a)) for a in grid if int(a) in self._stats
        )
        ei = expected_improvement(mean, sd, best)
        return int(grid[int(np.argmax(ei))])

    def decision_telemetry(self, n: int,
                           beta: Optional[float]) -> Dict[str, float]:
        """Posterior fields only: EI (or an epsilon-random draw), not the
        LCB the base class would report, chose the arm."""
        fields = super().decision_telemetry(n, beta)
        fields.pop("acquisition", None)
        return fields
