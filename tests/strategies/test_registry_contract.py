"""The strategy contract, checked on the loaded classes.

Every concrete ``Strategy`` subclass in the package (one that resolves
``_next_action`` to something other than the base's stub) must be what
some registered name builds, and every registered strategy must name
itself.  A missing ``_next_action``, a ``__post_init__`` that skips
``super()`` and a registry entry whose class is gone all fail
``test_determinism.py::test_same_seed_same_actions``, which drives every
registered name through ten propose/observe rounds.
"""

import pytest

import repro.faults  # noqa: F401  (defines ResilientStrategy)
from repro.strategies import (
    ActionSpace,
    OracleStrategy,
    Strategy,
    make_strategy,
    registered_names,
)


@pytest.fixture
def space():
    return ActionSpace(actions=tuple(range(2, 15)), n_total=14,
                       group_boundaries=(2, 8, 14),
                       lp_bound=lambda n: 1.0 + 60.0 / n)


def concrete_strategies():
    """Concrete ``Strategy`` subclasses defined under ``repro.``."""
    found, stack = set(), list(Strategy.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if (cls.__module__.startswith("repro.")
                and cls._next_action is not Strategy._next_action):
            found.add(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


def test_every_concrete_strategy_is_registered(space):
    classes = concrete_strategies()
    # The walk reaches grandchildren and the fault package's wrapper.
    assert {"UCBStructStrategy", "ResilientStrategy"} <= {
        cls.__name__ for cls in classes}
    # Oracle needs the clairvoyant best action: the evaluation code
    # builds it explicitly.
    built = {type(make_strategy(name, space)) for name in registered_names()}
    unregistered = [cls.__qualname__ for cls in classes
                    if cls not in built and cls is not OracleStrategy]
    assert unregistered == []


@pytest.mark.parametrize("name", registered_names())
def test_registered_strategy_sets_its_name(name, space):
    assert make_strategy(name, space).name != Strategy.name
