"""Shared fixtures for analysis tests: in-memory corpora and runners."""

import textwrap

import pytest

from repro.analysis import Analyzer, parse_source


def mk(rel, source):
    """Parse a dedented in-memory module at a pretend path."""
    return parse_source(textwrap.dedent(source), rel)


def run_rules(rules, *modules):
    """Run the given rule instances over in-memory modules."""
    report = Analyzer(rules=rules).run(list(modules))
    return report.findings


@pytest.fixture
def strategy_base():
    """A minimal stand-in for src/repro/strategies/base.py."""
    return mk("src/pkg/strategies/base.py", """
        class Strategy:
            def __post_init__(self):
                self.rng = object()

            def _next_action(self):
                raise NotImplementedError
    """)
