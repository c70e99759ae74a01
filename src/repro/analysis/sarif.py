"""SARIF 2.1.0 emitter (``python -m repro.analysis --format sarif``).

Produces the minimal static-analysis interchange document GitHub code
scanning ingests: one run, one ``tool.driver`` with per-rule metadata,
one ``results`` row per finding.  Severities map onto SARIF levels
(ERROR → ``error``, WARNING → ``warning``, INFO → ``note``); the
content-based :attr:`Finding.fingerprint` becomes
``partialFingerprints`` so alert identity survives line drift on the
code-scanning side.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .engine import Rule
from .findings import Finding, Report, Severity

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def _rule_descriptor(rule: Rule) -> Dict[str, object]:
    return {
        "id": rule.id,
        "name": rule.name or rule.id,
        "shortDescription": {"text": rule.description or rule.name},
        "defaultConfiguration": {"level": _LEVELS[rule.severity]},
    }


def _result(finding: Finding, rule_index: Dict[str, int]
            ) -> Dict[str, object]:
    result: Dict[str, object] = {
        "ruleId": finding.rule,
        "level": _LEVELS[finding.severity],
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path,
                    "uriBaseId": "%SRCROOT%",
                },
                "region": {
                    "startLine": max(1, finding.line),
                    "startColumn": finding.col + 1,
                },
            },
        }],
        "partialFingerprints": {
            "reproLintFingerprint/v1": finding.fingerprint,
        },
    }
    if finding.rule in rule_index:
        result["ruleIndex"] = rule_index[finding.rule]
    return result


def to_sarif(report: Report, rules: Sequence[Rule]) -> Dict[str, object]:
    """SARIF 2.1.0 document for one analysis run."""
    descriptors: List[Dict[str, object]] = []
    rule_index: Dict[str, int] = {}
    seen = set()
    for rule in rules:
        if rule.id in seen:
            continue
        seen.add(rule.id)
        rule_index[rule.id] = len(descriptors)
        descriptors.append(_rule_descriptor(rule))
    # Findings may carry family ids (e.g. PARSE000) with no registered
    # rule; synthesize bare descriptors so every result resolves.
    for finding in report.findings:
        if finding.rule not in rule_index:
            rule_index[finding.rule] = len(descriptors)
            descriptors.append({
                "id": finding.rule,
                "name": finding.rule,
                "shortDescription": {"text": finding.rule},
                "defaultConfiguration": {
                    "level": _LEVELS[finding.severity],
                },
            })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "rules": descriptors,
                },
            },
            "columnKind": "utf16CodeUnits",
            "results": [
                _result(f, rule_index) for f in report.findings
            ],
        }],
    }
