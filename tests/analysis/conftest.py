"""Shared helpers for analysis tests: in-memory modules and runs."""

import textwrap

from repro.analysis import analyze, parse_source


def mk(rel, source):
    """Parse a dedented in-memory module at a pretend path."""
    return parse_source(textwrap.dedent(source), rel)


def run_rules(*modules):
    """DET001 findings over in-memory modules."""
    return analyze(list(modules)).findings
