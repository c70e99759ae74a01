"""Tests for the engine: collection, scoping, suppression, parse errors."""

from repro.analysis import analyze_paths
from repro.analysis.engine import collect_files

from .conftest import mk, run_rules

BAD = "import numpy as np\nnp.random.seed(0)\n"


class TestScoping:
    def test_src_scoped_rule_skips_tests_dir(self):
        assert run_rules(mk("src/m.py", BAD))
        assert not run_rules(mk("tests/m.py", BAD))


class TestSuppression:
    def test_inline_disable_specific_rule(self):
        src = "import time\nt = time.time()  # repro-lint: disable=DET001\n"
        assert not run_rules(mk("src/m.py", src))

    def test_disable_other_rule_does_not_suppress(self):
        src = "import time\nt = time.time()  # repro-lint: disable=FLT001\n"
        assert run_rules(mk("src/m.py", src))


class TestRunPaths:
    def test_collects_and_reports(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "ok.py").write_text("x = 1\n")
        (tmp_path / "src" / "bad.py").write_text(BAD)
        report = analyze_paths(tmp_path, ["src"])
        assert report.files == ["src/bad.py", "src/ok.py"]
        assert [f.rule for f in report.findings] == ["DET001"]
        assert report.findings[0].path == "src/bad.py"

    def test_syntax_error_becomes_finding(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "broken.py").write_text("def f(:\n")
        report = analyze_paths(tmp_path, ["src"])
        assert [f.rule for f in report.findings] == ["PARSE000"]
        assert report.exit_code() == 1

    def test_skip_dirs(self, tmp_path):
        cache = tmp_path / "src" / "__pycache__"
        cache.mkdir(parents=True)
        (cache / "junk.py").write_text(BAD)
        files = collect_files(tmp_path, ["src"])
        assert files == []

    def test_skip_dirs_apply_below_the_target_only(self, tmp_path):
        # A checkout that lives under a directory named like a skipped
        # one (here `build/`) is still analyzed.
        src = tmp_path / "build" / "src"
        src.mkdir(parents=True)
        (src / "bad.py").write_text(BAD)
        report = analyze_paths(tmp_path / "build", ["src"])
        assert [f.rule for f in report.findings] == ["DET001"]

    def test_single_file_target(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n")
        assert collect_files(tmp_path, ["one.py"]) == [target]
