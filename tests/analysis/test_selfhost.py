"""The analyzer runs clean over this repository (the in-tree gate).

Every DET001 finding in ``src/`` is either fixed or accepted by an
inline ``# repro-lint: disable=DET001`` comment on its line.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def report():
    if not (REPO_ROOT / "pyproject.toml").exists():
        pytest.skip("repo root not found (installed-package run)")
    return analyze_paths(REPO_ROOT, ["src"])


class TestSelfHost:
    def test_repo_is_clean(self, report):
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"findings:\n{rendered}"

    def test_exit_code_is_zero(self, report):
        assert report.exit_code() == 0

    def test_corpus_was_actually_analyzed(self, report):
        # Guard against a silently-partial run "passing": the analyzed
        # set is exactly every Python file under src/.
        expected = {
            path.relative_to(REPO_ROOT).as_posix()
            for path in (REPO_ROOT / "src").rglob("*.py")
            if "__pycache__" not in path.parts
        }
        assert sorted(report.files) == sorted(expected)
