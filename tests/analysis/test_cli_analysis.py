"""Tests for the ``python -m repro.analysis`` command line."""

import io
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import find_root, main

REPO_ROOT = Path(__file__).resolve().parents[2]
ENV = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}


@pytest.fixture
def project(tmp_path, monkeypatch):
    """A miniature repo with one clean and one offending file; the
    working directory is its root."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    src = tmp_path / "src"
    src.mkdir()
    (src / "clean.py").write_text("x = 1\n")
    (src / "bad.py").write_text("import time\nt = time.time()\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestFindRoot:
    def test_walks_up_to_pyproject(self, project):
        nested = project / "src"
        assert find_root(nested) == project

    def test_falls_back_to_start(self, tmp_path):
        assert find_root(tmp_path) == tmp_path.resolve()


class TestMain:
    def test_findings_exit_1(self, project):
        code, out = run([])
        assert code == 1
        assert "src/bad.py:2:5: error: DET001:" in out
        assert out.endswith("2 files: 1 finding\n")

    def test_clean_tree_exit_0(self, project):
        (project / "src" / "bad.py").unlink()
        code, out = run([])
        assert code == 0
        assert "0 findings" in out

    def test_explicit_paths(self, project):
        code, out = run(["src/clean.py"])
        assert code == 0


class TestErrorPaths:
    def test_nonexistent_explicit_path_is_usage_error(self, project, capsys):
        code, _ = run(["src/gone.py"])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unreadable_file_reports_parse000(self, project):
        bad = project / "src" / "binary.py"
        bad.write_bytes(b"\xff\xfe\x00garbage\x00")
        (project / "src" / "bad.py").unlink()
        code, out = run([])
        assert code == 1
        assert "PARSE000" in out and "unreadable" in out

    def test_syntax_error_reports_parse000(self, project):
        (project / "src" / "bad.py").write_text("def broken(:\n")
        code, out = run([])
        assert code == 1
        assert "PARSE000" in out

    def test_empty_root_is_usage_error(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        monkeypatch.chdir(tmp_path)
        code, _ = run([])
        assert code == 2
        assert "nothing to analyze" in capsys.readouterr().err


class TestRemovedFlowFlags:
    @pytest.mark.parametrize("flag", [["--flow"], ["--graph", "g.json"],
                                      ["--write-purity", "p.json"]])
    def test_analysis_cli_rejects(self, project, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            run(flag)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestRemovedBaselineFlags:
    """Inline suppression is the one exception mechanism: no baseline."""

    @pytest.mark.parametrize("flag", [["--baseline", "b.json"],
                                      ["--no-baseline"]],
                             ids=["baseline", "no-baseline"])
    def test_rejected(self, project, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            run(flag)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestRemovedLintOptions:
    """The paths are the one option: no rule selection, severities,
    report formats or root override."""

    @pytest.mark.parametrize("flag", [["--strict"], ["--format", "json"],
                                      ["--select", "DET001"], ["--list-rules"],
                                      ["--root", "."]],
                             ids=["strict", "format", "select", "list-rules",
                                  "root"])
    def test_rejected(self, project, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            run(flag)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m_on_repo(self):
        if not (REPO_ROOT / "pyproject.toml").exists():
            pytest.skip("repo root not found")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis"],
            cwd=REPO_ROOT, capture_output=True, text=True, env=ENV,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_runs_det001_by_default(self, project):
        (project / "src" / "bad.py").write_text(
            "import numpy as np\n\n"
            "np.random.seed(0)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis"],
            cwd=project, capture_output=True, text=True, env=ENV,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "DET001" in proc.stdout and "src/bad.py" in proc.stdout
