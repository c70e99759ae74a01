"""The analyzer runs clean over this repository (the CI gate, in-tree).

This is the acceptance criterion of the subsystem: every finding in
``src/``, ``tests/`` and ``benchmarks/`` is either fixed or accepted by
an inline ``# repro-lint: disable=RULE`` comment on its line.
"""

from pathlib import Path

import pytest

from repro.analysis import Analyzer
from repro.analysis.cli import DEFAULT_TARGETS

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def report():
    if not (REPO_ROOT / "pyproject.toml").exists():
        pytest.skip("repo root not found (installed-package run)")
    targets = [t for t in DEFAULT_TARGETS if (REPO_ROOT / t).exists()]
    return Analyzer().run_paths(REPO_ROOT, targets)


class TestSelfHost:
    def test_repo_is_clean(self, report):
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"findings:\n{rendered}"

    def test_strict_exit_code_is_zero(self, report):
        assert report.exit_code(strict=True) == 0

    def test_corpus_was_actually_analyzed(self, report):
        # Guard against a silently-empty run "passing".
        assert report.files_analyzed > 100
        assert report.rules_run >= 6
