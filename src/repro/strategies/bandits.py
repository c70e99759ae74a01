"""Multi-armed bandit strategies: UCB and UCB-struct.

UCB (Eq. 1) treats every node count as an unrelated arm: it plays each
arm once (full exploration, which the paper shows is costly on large
search spaces) and then maximizes the empirical mean reward plus an
upper-confidence bonus.  UCB-struct restricts the arms to complete
homogeneous groups (the cluster's group boundaries), trading optimality
for a much smaller space (Section IV-C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .base import Strategy


@dataclass
class UCBStrategy(Strategy):
    """Upper-Confidence-Bound bandit over all node counts (``UCB``).

    Rewards are negated durations, min-max normalized adaptively so the
    exploration constant ``c`` is scale free.
    """

    c: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        self.name = "UCB"
        # Explore from the application default (all nodes) leftward.
        self._arms: Tuple[int, ...] = tuple(self._arm_set())
        self._sweep = list(sorted(self._arms, reverse=True))

    def _arm_set(self) -> Sequence[int]:
        return self.space.actions

    def _action_set(self) -> frozenset:
        return frozenset(self._arms)

    def _next_action(self) -> int:
        # Initial sweep: every arm once.
        for arm in self._sweep:
            if self.times_selected(arm) == 0:
                return arm
        # UCB rule on normalized rewards.
        means = {a: self.mean_duration(a) for a in self._arms}
        y_min = min(means.values())
        y_max = max(means.values())
        spread = max(y_max - y_min, 1e-12)
        t = self.iteration + 1
        best_arm, best_score = None, -math.inf
        for arm in self._arms:
            mean_reward = (y_max - means[arm]) / spread
            bonus = self.c * math.sqrt(math.log(t) / self.times_selected(arm))
            score = mean_reward + bonus
            if score > best_score:
                best_arm, best_score = arm, score
        return best_arm


@dataclass
class UCBStructStrategy(UCBStrategy):
    """UCB restricted to complete homogeneous groups (``UCB-struct``).

    For a 5A-5B-5C cluster the only arms are 5, 10 and 15 nodes.  "If the
    best action is outside these choices, it will never reach the optimal
    configuration" (Section IV-C).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.name = "UCB-struct"

    def _arm_set(self) -> Sequence[int]:
        arms = [b for b in self.space.group_boundaries if b in set(self.space.actions)]
        if self.space.n_total not in arms:
            arms.append(self.space.n_total)
        if not arms:
            arms = [self.space.n_total]
        return tuple(sorted(arms))
