"""Tests for the engine: collection, scoping, suppression, parse errors."""

import pytest

from repro.analysis import Analyzer, all_rules
from repro.analysis.engine import collect_files, register, Rule

from .conftest import mk, run_rules


class TestRuleRegistry:
    def test_all_rules_nonempty_and_sorted(self):
        rules = all_rules()
        ids = [r.id for r in rules]
        assert ids == sorted(ids)
        assert {"DET001", "STRAT001", "FLT001", "MUT001", "EXC001",
                "REG001"} <= set(ids)

    def test_select_subset(self):
        rules = all_rules(only=["FLT001"])
        assert [r.id for r in rules] == ["FLT001"]

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError, match="unknown rule ids"):
            all_rules(only=["NOPE999"])

    def test_register_rejects_duplicates_and_blank_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            @register
            class Clone(Rule):
                id = "FLT001"

        with pytest.raises(ValueError, match="non-empty id"):
            @register
            class Blank(Rule):
                pass


class TestScoping:
    def test_src_scoped_rule_skips_tests_dir(self):
        rules = all_rules(only=["DET001"])
        bad = "import numpy as np\nnp.random.seed(0)\n"
        assert run_rules(rules, mk("src/m.py", bad))
        assert not run_rules(rules, mk("tests/m.py", bad))


class TestSuppression:
    def test_inline_disable_specific_rule(self):
        rules = all_rules(only=["FLT001"])
        src = "ok = x == 0.5  # repro-lint: disable=FLT001\n"
        assert not run_rules(rules, mk("src/m.py", src))

    def test_inline_disable_all(self):
        rules = all_rules(only=["FLT001"])
        src = "ok = x == 0.5  # repro-lint: disable-all\n"
        assert not run_rules(rules, mk("src/m.py", src))

    def test_disable_other_rule_does_not_suppress(self):
        rules = all_rules(only=["FLT001"])
        src = "bad = x == 0.5  # repro-lint: disable=DET001\n"
        assert run_rules(rules, mk("src/m.py", src))


class TestRunPaths:
    def test_collects_and_reports(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "ok.py").write_text("x = 1\n")
        (tmp_path / "src" / "bad.py").write_text("if x == 0.5:\n    pass\n")
        report = Analyzer().run_paths(tmp_path, ["src"])
        assert report.files_analyzed == 2
        assert [f.rule for f in report.findings] == ["FLT001"]
        assert report.findings[0].path == "src/bad.py"

    def test_syntax_error_becomes_finding(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "broken.py").write_text("def f(:\n")
        report = Analyzer().run_paths(tmp_path, ["src"])
        assert [f.rule for f in report.findings] == ["PARSE000"]
        assert report.exit_code() == 1

    def test_skip_dirs(self, tmp_path):
        cache = tmp_path / "src" / "__pycache__"
        cache.mkdir(parents=True)
        (cache / "junk.py").write_text("if x == 0.5: pass\n")
        files = collect_files(tmp_path, ["src"])
        assert files == []

    def test_single_file_target(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n")
        assert collect_files(tmp_path, ["one.py"]) == [target]
