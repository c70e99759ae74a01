"""Static-analysis subsystem: determinism auditor + contract linters.

The reproduction's results (Figure 6's ≈51 % adaptation gain) are only
meaningful if every experiment is bit-deterministic and every strategy
honours the ``Strategy`` contract.  This package enforces both
mechanically: an AST-based engine (stdlib only) runs a registry of
rules over ``src/``, ``tests/`` and ``benchmarks/`` and gates CI via
``python -m repro.analysis --strict``.  An inline
``# repro-lint: disable=RULE`` comment on the offending line is the one
way to accept a reviewed finding.

Public surface:

* :class:`Analyzer`, :func:`all_rules`, :func:`register` — engine and
  rule registry (see :mod:`repro.analysis.rules` for the built-ins).
* :class:`Finding`, :class:`Severity`, :class:`Report` — result types.
"""

from __future__ import annotations

from .engine import (
    Analyzer,
    ParsedModule,
    ProjectRule,
    Rule,
    all_rules,
    parse_source,
    register,
)
from .findings import Finding, Report, Severity

__all__ = [
    "Analyzer",
    "Finding",
    "ParsedModule",
    "ProjectRule",
    "Report",
    "Rule",
    "Severity",
    "all_rules",
    "parse_source",
    "register",
]
