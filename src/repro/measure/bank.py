"""Measurement bank: precomputed duration samples per configuration.

The paper's evaluation methodology (Section V): all iteration durations
are obtained once (real runs or simulation, augmented with noise) and the
exploration strategies are then compared by *resampling* from this bank,
"so all exploration strategies are compared with the exact same iteration
durations".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from ..obs import write_atomic
from ..strategies.base import ActionSpace


@dataclass
class MeasurementBank:
    """Duration samples for every allowed configuration of one scenario.

    Attributes
    ----------
    label:
        Scenario label, e.g. ``"(i) G5K 6L-30S 101 (Simul)"``.
    actions:
        Allowed factorization node counts (increasing; last one = N).
    samples:
        Mapping ``n -> array of noisy duration samples``.
    lp:
        Mapping ``n -> LP lower bound`` (seconds).
    group_boundaries:
        Node counts completing each homogeneous group.
    true_means:
        Mapping ``n -> deterministic simulated duration`` (pre-noise).
    rigid:
        Optional mapping ``n -> duration with n_gen = n_fact = n`` (the
        yellow line of Figure 5).
    """

    label: str
    actions: Tuple[int, ...]
    samples: Dict[int, np.ndarray]
    lp: Dict[int, float]
    group_boundaries: Tuple[int, ...] = ()
    true_means: Dict[int, float] = field(default_factory=dict)
    rigid: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.actions:
            raise ValueError("bank must cover at least one action")
        missing = [n for n in self.actions if n not in self.samples]
        if missing:
            raise ValueError(f"missing samples for actions {missing}")

    # -- queries ---------------------------------------------------------------------

    @property
    def n_total(self) -> int:
        """Total node count N (the largest action)."""
        return self.actions[-1]

    def resample(self, n: int, rng: np.random.Generator) -> float:
        """One duration drawn (with replacement) from the samples of n."""
        values = self.samples[n]
        return float(values[rng.integers(len(values))])

    def mean(self, n: int) -> float:
        """Mean observed duration of action ``n``."""
        return float(np.mean(self.samples[n]))

    def sd(self, n: int) -> float:
        """Standard deviation of action ``n``'s samples."""
        return float(np.std(self.samples[n]))

    def best_action(self) -> int:
        """Configuration with the lowest mean duration (clairvoyant)."""
        return min(self.actions, key=lambda n: (self.mean(n), n))

    def action_space(self) -> ActionSpace:
        """Action space (with the bank's LP bound) for strategies."""
        lp = dict(self.lp)
        return ActionSpace(
            actions=self.actions,
            n_total=self.n_total,
            group_boundaries=tuple(
                b for b in self.group_boundaries if b >= self.actions[0]
            ),
            lp_bound=lambda n: lp[n],
        )

    # -- persistence -------------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Serialize to JSON (small: a few hundred floats per action)."""
        payload = {
            "label": self.label,
            "actions": list(self.actions),
            "samples": {str(n): list(map(float, v)) for n, v in self.samples.items()},
            "lp": {str(n): float(v) for n, v in self.lp.items()},
            "group_boundaries": list(self.group_boundaries),
            "true_means": {str(n): float(v) for n, v in self.true_means.items()},
            "rigid": {str(n): float(v) for n, v in self.rigid.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, json.dumps(payload))

    @classmethod
    def load(cls, path: Path) -> "MeasurementBank":
        """Deserialize a bank saved with :meth:`save`.

        Raises ``ValueError`` for invalid JSON, a top-level value that
        is not an object, a missing key, a mapping that is not an
        object, and ``samples`` values that do not convert to 1-D float
        arrays.  The values under ``lp``, ``true_means`` and ``rigid``
        are taken as they are.
        """
        payload = json.loads(path.read_text())
        try:
            bank = cls(
                label=payload["label"],
                actions=tuple(payload["actions"]),
                samples={
                    int(n): np.asarray(v, dtype=np.float64)
                    for n, v in payload["samples"].items()
                },
                lp={int(n): v for n, v in payload["lp"].items()},
                group_boundaries=tuple(payload.get("group_boundaries", ())),
                true_means={
                    int(n): v for n, v in payload.get("true_means", {}).items()
                },
                rigid={int(n): v for n, v in payload.get("rigid", {}).items()},
            )
        except (TypeError, AttributeError, KeyError) as exc:
            raise ValueError(
                f"{path}: not a saved measurement bank ({exc!r})"
            ) from exc
        if any(v.ndim != 1 for v in bank.samples.values()):
            raise ValueError(f"{path}: samples are not lists of durations")
        return bank


class DriftingBank:
    """Non-stationary measurement source: switches regimes mid-run.

    Wraps two banks over the same action set; the first ``switch_at``
    resamples come from ``before``, later ones from ``after`` -- modelling
    a platform whose behaviour changes during the campaign (the paper's
    future-work non-stationary setting).  Implements the subset of the
    bank interface the evaluation runner needs.
    """

    def __init__(
        self, before: MeasurementBank, after: MeasurementBank, switch_at: int
    ) -> None:
        if before.actions != after.actions:
            raise ValueError("both regimes must cover the same actions")
        if switch_at < 0:
            raise ValueError("switch_at must be non-negative")
        self.before = before
        self.after = after
        self.switch_at = switch_at
        self._draws = 0

    @property
    def label(self) -> str:
        """Combined label of both regimes."""
        return f"{self.before.label} -> {self.after.label} @ {self.switch_at}"

    @property
    def actions(self):
        """Shared action set of both regimes."""
        return self.before.actions

    @property
    def n_total(self) -> int:
        """Total node count N."""
        return self.before.n_total

    def reset(self) -> None:
        """Restart the regime clock (call between repetitions)."""
        self._draws = 0

    def current(self) -> MeasurementBank:
        """The regime active for the next draw."""
        return self.before if self._draws < self.switch_at else self.after

    def resample(self, n: int, rng: np.random.Generator) -> float:
        """Draw from the current regime and advance the regime clock."""
        bank = self.current()
        self._draws += 1
        return bank.resample(n, rng)

    def action_space(self) -> ActionSpace:
        """Action space of the (shared) domain."""
        return self.before.action_space()

    def best_action(self) -> int:
        """Best action of the *final* regime (what adaptation should find)."""
        return self.after.best_action()


def synthetic_bank(
    f,
    actions,
    lp=None,
    group_boundaries: Tuple[int, ...] = (),
    noise_sd: float = 0.5,
    k: int = 30,
    seed: int = 0,
    label: str = "synthetic",
) -> MeasurementBank:
    """Bank built from an arbitrary duration function (tests, demos)."""
    rng = np.random.default_rng(seed)
    actions = tuple(int(a) for a in actions)
    samples = {
        n: np.maximum(f(n) + rng.normal(0.0, noise_sd, size=k), 0.0)
        for n in actions
    }
    lp_map = {n: (lp(n) if lp else 0.0) for n in actions}
    return MeasurementBank(
        label=label,
        actions=actions,
        samples=samples,
        lp=lp_map,
        group_boundaries=group_boundaries,
        true_means={n: float(f(n)) for n in actions},
    )
