"""Rule modules; importing this package populates the rule registry.

Adding a rule: create (or extend) a module here with a
:class:`~repro.analysis.engine.Rule` or
:class:`~repro.analysis.engine.ProjectRule` subclass decorated with
``@register``, then import it below.  See DESIGN.md §"Static analysis".
"""

from __future__ import annotations

from . import contracts, determinism, floats, hygiene, registry_sync

__all__ = [
    "contracts",
    "determinism",
    "floats",
    "hygiene",
    "registry_sync",
]
