"""Tests for the Finding and Report primitives."""

from repro.analysis import Finding, Report


class TestFinding:
    def test_render(self):
        f = Finding(rule="X001", path="src/a.py", line=3, col=4,
                    message="boom")
        assert f.render() == "src/a.py:3:5: error: X001: boom"


class TestReport:
    def test_exit_code_error_always_fails(self):
        report = Report(findings=[Finding(rule="X", path="p", line=1,
                                          message="m")])
        assert report.exit_code() == 1

    def test_clean(self):
        assert Report().exit_code() == 0
