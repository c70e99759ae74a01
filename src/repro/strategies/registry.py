"""Registry of every instantiable exploration strategy.

The paper's seven strategies (Figure 6's x-axis) keep their names and
grouping; the extensions that grew alongside the reproduction (annealing,
stochastic approximation, the windowed GP, and the all-nodes
default) are registered too so every sweep can reach them by name.
``tests/strategies/test_registry_contract.py`` checks that every
concrete ``Strategy`` subclass stays registered and names itself
(``OracleStrategy`` is exempt: it needs the clairvoyant ``best_action``
and is constructed explicitly by the evaluation code).

Figure 6's seven, with their colour groups:

=================  ===============
Strategy           Group
=================  ===============
DC                 Heuristics
Right-Left         Heuristics
Brent              Classical opt
UCB                Multi-armed
UCB-struct         Multi-armed
GP-UCB             GP
GP-discontinuous   GP
=================  ===============
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .bandits import UCBStrategy, UCBStructStrategy
from .base import ActionSpace, AllNodesStrategy, OracleStrategy, Strategy
from .brent import BrentStrategy
from .gp_discontinuous import GPDiscontinuousStrategy
from .gp_ucb import GPUCBStrategy
from .naive import DichotomyStrategy, RightLeftStrategy
from .nonstationary import WindowedGPDiscontinuousStrategy
from .stochastic import SimulatedAnnealingStrategy, StochasticApproximationStrategy

#: Factory type: (space, seed) -> Strategy.
StrategyFactory = Callable[[ActionSpace, int], Strategy]

def _resilient_factory(inner: str) -> StrategyFactory:
    """Factory for the ``Resilient(<inner>)`` fault-tolerant wrapper.

    The wrapper class lives in :mod:`repro.faults.resilience` (the fault
    subsystem), which imports this package for ``make_strategy`` -- the
    import happens lazily at build time so neither package needs the
    other at module load.
    """

    def build(space: ActionSpace, seed: int) -> Strategy:
        from ..faults.resilience import ResilientStrategy

        return ResilientStrategy(space, seed, inner=inner)

    return build


_REGISTRY: Dict[str, StrategyFactory] = {
    # The paper's seven (Figure 6).
    "DC": lambda space, seed: DichotomyStrategy(space, seed),
    "Right-Left": lambda space, seed: RightLeftStrategy(space, seed),
    "Brent": lambda space, seed: BrentStrategy(space, seed),
    "UCB": lambda space, seed: UCBStrategy(space, seed),
    "UCB-struct": lambda space, seed: UCBStructStrategy(space, seed),
    "GP-UCB": lambda space, seed: GPUCBStrategy(space, seed),
    "GP-discontinuous": lambda space, seed: GPDiscontinuousStrategy(space, seed),
    # Extensions beyond the paper.
    "All-nodes": lambda space, seed: AllNodesStrategy(space, seed),
    "SANN": lambda space, seed: SimulatedAnnealingStrategy(space, seed),
    "StochasticApprox": lambda space, seed: StochasticApproximationStrategy(space, seed),
    "GP-discontinuous-windowed": lambda space, seed: WindowedGPDiscontinuousStrategy(space, seed),
}

#: Figure 6 ordering.
STRATEGY_ORDER = (
    "DC",
    "Right-Left",
    "Brent",
    "UCB",
    "UCB-struct",
    "GP-UCB",
    "GP-discontinuous",
)

# Fault-tolerant wrappers (repro.faults): one per paper strategy.
_REGISTRY.update({
    f"Resilient({name})": _resilient_factory(name) for name in STRATEGY_ORDER
})

#: Figure 6 colour groups.
STRATEGY_GROUPS: Dict[str, str] = {
    "DC": "Heuristics",
    "Right-Left": "Heuristics",
    "Brent": "Classical opt",
    "UCB": "Multi-armed",
    "UCB-struct": "Multi-armed",
    "GP-UCB": "GP",
    "GP-discontinuous": "GP",
}
STRATEGY_GROUPS.update({
    f"Resilient({name})": "Resilient" for name in STRATEGY_ORDER
})


def strategy_names() -> List[str]:
    """The seven strategy names in Figure 6 order."""
    return list(STRATEGY_ORDER)


def registered_names() -> List[str]:
    """Every registered strategy name (paper's seven plus extensions)."""
    return sorted(_REGISTRY)


def make_strategy(name: str, space: ActionSpace, seed: int = 0) -> Strategy:
    """Instantiate a strategy by its paper name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return factory(space, seed)


__all__ = [
    "AllNodesStrategy",
    "OracleStrategy",
    "STRATEGY_GROUPS",
    "STRATEGY_ORDER",
    "StrategyFactory",
    "make_strategy",
    "registered_names",
    "strategy_names",
]
