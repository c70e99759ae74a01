"""Tests for Finding/Severity/Report primitives."""

import pytest

from repro.analysis import Finding, Report, Severity


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_parse(self):
        assert Severity.parse("error") is Severity.ERROR
        assert Severity.parse(" Warning ") is Severity.WARNING
        with pytest.raises(ValueError):
            Severity.parse("fatal")

    def test_str(self):
        assert str(Severity.ERROR) == "error"


class TestFinding:
    def test_render(self):
        f = Finding(rule="X001", path="src/a.py", line=3, col=4,
                    message="boom", severity=Severity.WARNING,
                    context="x = 1")
        assert f.render() == "src/a.py:3:5: warning: X001: boom"

    def test_fingerprint_is_content_based(self):
        a = Finding(rule="X001", path="src/a.py", line=3,
                    message="boom", context="x == 0.5")
        b = Finding(rule="X001", path="src/a.py", line=99,
                    message="boom", context="x == 0.5")
        assert a.fingerprint == b.fingerprint

    def test_to_dict_round_trip_keys(self):
        d = Finding(rule="X001", path="p.py", line=1, message="m").to_dict()
        assert d["rule"] == "X001" and d["severity"] == "error"


class TestReport:
    def _finding(self, severity):
        return Finding(rule="X", path="p", line=1, message="m",
                       severity=severity)

    def test_exit_code_non_strict_ignores_warnings(self):
        report = Report(findings=[self._finding(Severity.WARNING)])
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1

    def test_exit_code_error_always_fails(self):
        report = Report(findings=[self._finding(Severity.ERROR)])
        assert report.exit_code(strict=False) == 1

    def test_clean(self):
        assert Report().exit_code(strict=True) == 0
