"""Finding and severity primitives of the analysis subsystem.

A :class:`Finding` is one diagnostic produced by one rule at one source
location.  Findings are value objects: the engine produces them, inline
``# repro-lint: disable=...`` comments drop some of them, and the CLI
renders the rest.

A finding's identity is *content-based*, not line-number-based: its
:attr:`Finding.context` is the stripped text of the offending source
line, so the SARIF fingerprint survives unrelated edits that merely
shift line numbers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class Severity(enum.IntEnum):
    """Ordered severity levels; higher is worse."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; known: "
                f"{[s.name.lower() for s in cls]}"
            ) from None

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnostic: ``rule`` fired at ``path:line``.

    Attributes
    ----------
    rule:
        Rule identifier (e.g. ``"DET001"``): the id that inline
        ``# repro-lint: disable=...`` comments name.
    path:
        Path of the offending file, POSIX-style, relative to the
        analysis root.
    line / col:
        1-based line and 0-based column of the offending node.
    message:
        Human-readable description of the problem.
    severity:
        The rule's severity (possibly specialized per finding).
    context:
        Stripped source text of the offending line; part of the
        content-based fingerprint.
    """

    rule: str
    path: str
    line: int
    message: str
    severity: Severity = Severity.ERROR
    col: int = 0
    context: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity (SARIF ``partialFingerprints``): rule + file +
        line text."""
        return f"{self.rule}|{self.path}|{self.context}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (``--format json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": str(self.severity),
            "message": self.message,
            "context": self.context,
        }

    def render(self) -> str:
        """One-line text rendering (``--format text``)."""
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{str(self.severity)}: {self.rule}: {self.message}"
        )


def sort_key(finding: Finding):
    """Deterministic report order: by file, line, column, rule."""
    return (finding.path, finding.line, finding.col, finding.rule)


@dataclass
class Report:
    """Outcome of one analysis run."""

    findings: list = field(default_factory=list)
    files_analyzed: int = 0
    rules_run: int = 0

    def worst(self) -> Severity:
        if not self.findings:
            return Severity.INFO
        return max(f.severity for f in self.findings)

    def exit_code(self, strict: bool = False) -> int:
        """0 when clean.

        Non-strict: ERROR findings fail the run.  Strict: any finding of
        any severity fails.
        """
        if strict and self.findings:
            return 1
        return 1 if any(f.severity >= Severity.ERROR for f in self.findings) else 0
