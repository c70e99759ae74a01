"""Tests for the ``python -m repro.analysis`` command line."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import find_root, main

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def project(tmp_path):
    """A miniature repo with one clean and one offending file."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    src = tmp_path / "src"
    src.mkdir()
    (src / "clean.py").write_text("x = 1\n")
    (src / "bad.py").write_text("def f(xs=[]):\n    return xs\n")
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
        code, out = run(["--root", str(project)])
        assert code == 1
        assert "MUT001" in out and "src/bad.py" in out

    def test_clean_tree_exit_0(self, project):
        (project / "src" / "bad.py").unlink()
        code, out = run(["--root", str(project)])
        assert code == 0
        assert "0 findings" in out

    def test_warning_passes_default_fails_strict(self, project):
        (project / "src" / "bad.py").write_text("ok = x == 0.5\n")
        assert run(["--root", str(project)])[0] == 0
        assert run(["--root", str(project), "--strict"])[0] == 1

    def test_json_format(self, project):
        code, out = run(["--root", str(project), "--format", "json"])
        payload = json.loads(out)
        assert payload["exit_code"] == code == 1
        assert payload["findings"][0]["rule"] == "MUT001"

    def test_write_baseline_then_strict_green(self, project):
        code, _ = run(["--root", str(project), "--write-baseline"])
        assert code == 0
        assert (project / "analysis-baseline.json").exists()
        code, out = run(["--root", str(project), "--strict"])
        assert code == 0
        assert "1 baselined" in out

    def test_stale_baseline_fails_strict(self, project):
        run(["--root", str(project), "--write-baseline"])
        (project / "src" / "bad.py").write_text("x = 1\n")
        code, out = run(["--root", str(project), "--strict"])
        assert code == 1
        assert "stale" in out

    def test_no_baseline_flag(self, project):
        run(["--root", str(project), "--write-baseline"])
        assert run(["--root", str(project), "--no-baseline"])[0] == 1

    def test_select(self, project):
        code, out = run(["--root", str(project), "--select", "FLT001"])
        assert code == 0  # MUT001 not selected

    def test_unknown_select_is_usage_error(self, project):
        assert run(["--root", str(project), "--select", "NOPE1"])[0] == 2

    def test_list_rules(self):
        code, out = run(["--list-rules"])
        assert code == 0
        for rule_id in ("DET001", "STRAT001", "FLT001", "MUT001",
                        "EXC001", "REG001", "POOL001"):
            assert rule_id in out

    def test_explicit_paths(self, project):
        code, out = run(["src/clean.py", "--root", str(project)])
        assert code == 0


class TestErrorPaths:
    def test_nonexistent_explicit_path_is_usage_error(self, project, capsys):
        code, _ = run(["src/gone.py", "--root", str(project)])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unreadable_file_reports_parse000(self, project):
        bad = project / "src" / "binary.py"
        bad.write_bytes(b"\xff\xfe\x00garbage\x00")
        (project / "src" / "bad.py").unlink()
        code, out = run(["--root", str(project)])
        assert code == 1
        assert "PARSE000" in out and "unreadable" in out

    def test_syntax_error_reports_parse000(self, project):
        (project / "src" / "bad.py").write_text("def broken(:\n")
        code, out = run(["--root", str(project)])
        assert code == 1
        assert "PARSE000" in out

    def test_malformed_baseline_json_is_usage_error(self, project, capsys):
        (project / "analysis-baseline.json").write_text("{not json")
        code, _ = run(["--root", str(project)])
        assert code == 2
        assert "bad baseline file" in capsys.readouterr().err

    def test_empty_root_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        code, _ = run(["--root", str(tmp_path)])
        assert code == 2
        assert "nothing to analyze" in capsys.readouterr().err


class TestStaleSuppressions:
    def test_stale_entry_fails_default_mode_with_guidance(self, project):
        run(["--root", str(project), "--write-baseline"])
        (project / "src" / "bad.py").write_text("x = 1\n")
        code, out = run(["--root", str(project)])
        assert code == 1
        assert "stale suppression" in out
        assert "--prune-baseline" in out

    def test_prune_baseline_round_trip(self, project):
        run(["--root", str(project), "--write-baseline"])
        (project / "src" / "bad.py").write_text("x = 1\n")
        code, out = run(["--root", str(project), "--prune-baseline"])
        assert code == 0
        assert "pruned 1 stale entry" in out
        baseline = json.loads(
            (project / "analysis-baseline.json").read_text())
        assert baseline["entries"] == []
        assert run(["--root", str(project), "--strict"])[0] == 0

    def test_prune_keeps_live_entries(self, project):
        run(["--root", str(project), "--write-baseline"])
        code, out = run(["--root", str(project), "--prune-baseline"])
        assert code == 0
        assert "kept 1" in out
        assert run(["--root", str(project), "--strict"])[0] == 0


class TestRemovedFlowFlags:
    @pytest.mark.parametrize("flag", [["--flow"], ["--graph", "g.json"],
                                      ["--write-purity", "p.json"]])
    def test_analysis_cli_rejects(self, project, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            run(["--root", str(project), *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--flow"], ["--graph", "g.json"],
                                      ["--write-purity", "p.json"]])
    def test_repro_lint_rejects(self, capsys, flag):
        from repro.cli import main as repro_main

        with pytest.raises(SystemExit) as exc:
            repro_main(["lint", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestSarifFormat:
    def test_sarif_output_parses_and_carries_findings(self, project):
        code, out = run(["--root", str(project), "--format", "sarif"])
        assert code == 1
        doc = json.loads(out)
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert any(r["ruleId"] == "MUT001" for r in results)


class TestModuleEntryPoint:
    def test_python_dash_m_strict_on_repo(self):
        if not (REPO_ROOT / "pyproject.toml").exists():
            pytest.skip("repo root not found")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--strict"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_strict_runs_pool001_by_default(self, project):
        (project / "src" / "bad.py").write_text(
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "def go(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(lambda x: x, items))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--strict",
             "--root", str(project)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "POOL001" in proc.stdout and "src/bad.py" in proc.stdout
