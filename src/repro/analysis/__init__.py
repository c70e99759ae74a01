"""Static analysis: the DET001 determinism auditor.

The reproduction's results (Figure 6's ≈51 % adaptation gain) are only
meaningful if every experiment is bit-deterministic.  DET001 keeps
global RNG state, unseeded generators and wall-clock reads out of
``src/``; ``python -m repro.analysis`` runs it (stdlib :mod:`ast` only)
and the self-host test holds the repository to it.  An inline
``# repro-lint: disable=DET001`` comment on the offending line is the
one way to accept a reviewed finding.
"""

from __future__ import annotations

from .engine import Finding, ParsedModule, Report, analyze, analyze_paths, parse_source

__all__ = [
    "Finding",
    "ParsedModule",
    "Report",
    "analyze",
    "analyze_paths",
    "parse_source",
]
