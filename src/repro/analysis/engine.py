"""Analysis engine: file collection, parsing, suppression and the run loop.

Every target file is parsed once (stdlib :mod:`ast`, no third-party
dependencies) into a :class:`ParsedModule`; files under ``src/`` are
then checked by DET001 (:mod:`repro.analysis.determinism`).  A file
that cannot be read or parsed is reported as ``PARSE000`` instead of
aborting the run.

A finding on a line whose source carries
``# repro-lint: disable=DET001`` is dropped: that inline comment is the
one exemption mechanism.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence

from .determinism import violations

#: Directories never descended into below a target while collecting files.
SKIP_DIRS = {
    ".git", "__pycache__", ".pytest_cache", "build", "dist",
    ".eggs", "out", ".venv", "venv", "node_modules",
}

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\-]+)")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: ``rule`` fired at ``path:line`` (1-based line,
    0-based ``col``); ``path`` is POSIX-style, relative to the root."""

    rule: str
    path: str
    line: int
    message: str
    col: int = 0

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"error: {self.rule}: {self.message}")


@dataclass
class Report:
    """Outcome of one run: the findings and every file collected."""

    findings: List[Finding] = field(default_factory=list)
    files: List[str] = field(default_factory=list)

    def exit_code(self) -> int:
        """0 when clean, 1 on any finding."""
        return 1 if self.findings else 0


@dataclass
class ParsedModule:
    """One parsed source file; ``rel`` is its POSIX path under the root."""

    rel: str
    tree: ast.AST
    lines: List[str]

    def disabled(self, finding: Finding) -> bool:
        """True when the finding's line disables the finding's rule."""
        text = self.lines[finding.line - 1] if finding.line <= len(self.lines) else ""
        match = _SUPPRESS_RE.search(text)
        return match is not None and finding.rule in {
            r.strip() for r in match.group(1).split(",")}


def parse_source(source: str, rel: str) -> ParsedModule:
    """Parse an in-memory source; raises SyntaxError for broken code."""
    return ParsedModule(rel, ast.parse(source, filename=rel), source.splitlines())


def collect_files(root: Path, paths: Sequence[str]) -> List[Path]:
    """Python files under ``root/<path>`` for each target path, each once."""
    out: List[Path] = []
    for target in paths:
        base = (root / target).resolve()
        if base.is_file() and base.suffix == ".py":
            candidates = [base]
        elif base.is_dir():
            candidates = [p for p in sorted(base.rglob("*.py"))
                          if not SKIP_DIRS.intersection(p.relative_to(base).parts)]
        else:
            candidates = []
        out.extend(p for p in candidates if p not in out)
    return out


def _sort_key(finding: Finding):
    return (finding.path, finding.line, finding.col, finding.rule)


def analyze(modules: Sequence[ParsedModule]) -> Report:
    """Run DET001 over the modules under ``src/``."""
    report = Report(files=[m.rel for m in modules])
    for module in modules:
        if module.rel.split("/", 1)[0] != "src":
            continue
        for node, message in violations(module.tree):
            finding = Finding("DET001", module.rel, node.lineno, message,
                              node.col_offset)
            if not module.disabled(finding):
                report.findings.append(finding)
    report.findings.sort(key=_sort_key)
    return report


def analyze_paths(root: Path, paths: Sequence[str]) -> Report:
    """Collect, parse and analyze the files under ``root/<paths>``."""
    modules: List[ParsedModule] = []
    failures: List[Finding] = []
    files = collect_files(root, paths)
    rels = [p.relative_to(root.resolve()).as_posix() for p in files]
    for path, rel in zip(files, rels):
        try:
            modules.append(parse_source(path.read_text(encoding="utf-8"), rel))
        except SyntaxError as exc:
            failures.append(Finding("PARSE000", rel, exc.lineno or 1,
                                    f"file does not parse: {exc.msg}"))
        except (OSError, UnicodeDecodeError) as exc:
            failures.append(Finding("PARSE000", rel, 1,
                                    f"file is unreadable: {exc}"))
    report = analyze(modules)
    report.files = rels
    report.findings = sorted(report.findings + failures, key=_sort_key)
    return report
