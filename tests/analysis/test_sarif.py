"""SARIF 2.1.0 emitter: structural validation against the spec shape
GitHub code scanning requires (schema/version/runs/tool/results)."""

import json

from repro.analysis import all_rules
from repro.analysis.engine import Analyzer
from repro.analysis.findings import Finding, Report, Severity
from repro.analysis.sarif import SARIF_SCHEMA, SARIF_VERSION, to_sarif

from .conftest import mk


def analyze(*modules):
    rules = all_rules()
    analyzer = Analyzer(rules=rules)
    report = analyzer.run([mk(rel, src) for rel, src in modules])
    return report, rules


class TestDocumentShape:
    def test_envelope(self):
        report, rules = analyze(("src/m.py", "def f(xs=[]):\n    return xs"))
        doc = to_sarif(report, rules)
        assert doc["$schema"] == SARIF_SCHEMA
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert len(doc["runs"]) == 1
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert run["columnKind"] == "utf16CodeUnits"

    def test_document_is_json_serializable(self):
        report, rules = analyze(("src/m.py", "def f(xs=[]):\n    return xs"))
        json.dumps(to_sarif(report, rules))

    def test_rule_descriptors(self):
        report, rules = analyze(("src/m.py", "x = 1\n"))
        descriptors = to_sarif(report, rules)["runs"][0]["tool"]["driver"]["rules"]
        ids = [d["id"] for d in descriptors]
        assert len(ids) == len(set(ids))
        assert "MUT001" in ids and "DET001" in ids
        for d in descriptors:
            assert d["shortDescription"]["text"]
            assert d["defaultConfiguration"]["level"] in (
                "error", "warning", "note")


class TestResults:
    def test_result_row(self):
        report, rules = analyze(("src/m.py", "def f(xs=[]):\n    return xs"))
        doc = to_sarif(report, rules)
        run = doc["runs"][0]
        [result] = [r for r in run["results"] if r["ruleId"] == "MUT001"]
        assert result["level"] == "error"
        assert result["message"]["text"]
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/m.py"
        assert loc["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        assert loc["region"]["startLine"] >= 1
        assert loc["region"]["startColumn"] >= 1
        fp = result["partialFingerprints"]["reproLintFingerprint/v1"]
        assert fp == report.findings[0].fingerprint
        rules_list = run["tool"]["driver"]["rules"]
        assert rules_list[result["ruleIndex"]]["id"] == "MUT001"

    def test_severity_level_mapping(self):
        finding = Finding(rule="X001", path="src/m.py", line=1, col=0,
                          message="m", severity=Severity.WARNING,
                          context="c")
        report = Report(findings=[finding], files_analyzed=1, rules_run=0)
        doc = to_sarif(report, [])
        assert doc["runs"][0]["results"][0]["level"] == "warning"

    def test_unregistered_rule_gets_synthesized_descriptor(self):
        # PARSE000 (and any family id) has no registered Rule class.
        finding = Finding(rule="PARSE000", path="src/m.py", line=1, col=0,
                          message="syntax error", severity=Severity.ERROR,
                          context="c")
        report = Report(findings=[finding], files_analyzed=1, rules_run=0)
        doc = to_sarif(report, all_rules())
        run = doc["runs"][0]
        descriptor_ids = [d["id"] for d in run["tool"]["driver"]["rules"]]
        assert "PARSE000" in descriptor_ids
        [result] = run["results"]
        assert descriptor_ids[result["ruleIndex"]] == "PARSE000"
