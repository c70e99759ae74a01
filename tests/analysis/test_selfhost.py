"""The analyzer runs clean over this repository (the CI gate, in-tree).

This is the acceptance criterion of the subsystem: every finding in
``src/``, ``tests/`` and ``benchmarks/`` is either fixed or carries an
explicit baseline entry with a written reason, and the committed
baseline contains no stale entries.
"""

from pathlib import Path

import pytest

from repro.analysis import run_analysis
from repro.analysis.baseline import Baseline, DEFAULT_BASELINE_NAME

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def report():
    if not (REPO_ROOT / "pyproject.toml").exists():
        pytest.skip("repo root not found (installed-package run)")
    return run_analysis(REPO_ROOT)


class TestSelfHost:
    def test_repo_is_clean(self, report):
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"non-baselined findings:\n{rendered}"

    def test_no_stale_baseline_entries(self, report):
        assert report.stale_baseline == []

    def test_strict_exit_code_is_zero(self, report):
        assert report.exit_code(strict=True) == 0

    def test_corpus_was_actually_analyzed(self, report):
        # Guard against a silently-empty run "passing".
        assert report.files_analyzed > 100
        assert report.rules_run >= 6

    def test_baseline_entries_all_have_reasons(self):
        baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
        for entry in baseline.entries:
            assert entry.reason.strip(), (
                f"baseline entry {entry.fingerprint} has no reason"
            )
