"""Analysis engine: file collection, rule registry, and the run loop.

The engine parses every target file once (stdlib :mod:`ast`, no third
party dependencies) into a :class:`ParsedModule` and hands the corpus to
two kinds of rules:

* :class:`Rule` — per-module rules; ``check(module)`` yields findings
  for one file at a time (e.g. the determinism auditor).
* :class:`ProjectRule` — whole-corpus rules; ``check_project(modules)``
  sees every parsed module at once (e.g. the strategy-contract linter
  and the registry-coverage check, which need the cross-file class
  hierarchy).

Rules self-register through the :func:`register` decorator; the CLI and
tests enumerate them via :func:`all_rules`.

Inline suppression: a finding on a line whose source contains
``# repro-lint: disable=RULE1,RULE2`` (or ``disable-all``) is dropped.
Suppressions are for reviewed, intentional code, and they are the only
exception mechanism: there is no baseline file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type

from .findings import Finding, Report, Severity, sort_key

#: Directories never descended into while collecting files.
SKIP_DIRS = {
    ".git", "__pycache__", ".pytest_cache", "build", "dist",
    ".eggs", "out", ".venv", "venv", "node_modules",
}

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\-]+)|#\s*repro-lint:\s*disable-all"
)


@dataclass
class ParsedModule:
    """One parsed source file.

    ``rel`` is the POSIX-style path relative to the analysis root; its
    first component (``src``, ``tests``, ``benchmarks`` …) is the
    *scope* rules use to decide applicability.
    """

    rel: str
    source: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    @property
    def scope(self) -> str:
        return self.rel.split("/", 1)[0]

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def suppressed_rules(self, lineno: int) -> Optional[set]:
        """Rule ids disabled on ``lineno``; ``None`` means disable-all."""
        match = _SUPPRESS_RE.search(self.line_text(lineno))
        if match is None:
            return set()
        if match.group(1) is None:
            return None
        return {r.strip() for r in match.group(1).split(",") if r.strip()}


class Rule:
    """Per-module rule.  Subclass and decorate with :func:`register`."""

    #: Primary identifier; rules may emit findings under related ids
    #: (listed in ``ids``) when they enforce a family of checks.
    id: str = ""
    name: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR
    #: Scopes (top-level directories) the rule applies to; None = all.
    scopes: Optional[Sequence[str]] = None

    @property
    def ids(self) -> Sequence[str]:
        return (self.id,)

    def applies_to(self, module: ParsedModule) -> bool:
        return self.scopes is None or module.scope in self.scopes

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ParsedModule,
        node: ast.AST,
        message: str,
        rule_id: Optional[str] = None,
        severity: Optional[Severity] = None,
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=rule_id or self.id,
            path=module.rel,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=self.severity if severity is None else severity,
            context=module.line_text(line),
        )


class ProjectRule(Rule):
    """Whole-corpus rule; sees every parsed module at once."""

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        return iter(())

    def check_project(self, modules: Sequence[ParsedModule]) -> Iterator[Finding]:
        raise NotImplementedError


_RULE_CLASSES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} must define a non-empty id")
    if cls.id in _RULE_CLASSES:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _RULE_CLASSES[cls.id] = cls
    return cls


def all_rules(only: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate every registered rule (or the subset in ``only``)."""
    from . import rules as _rules  # noqa: F401  (import populates the registry)

    wanted = None if only is None else set(only)
    if wanted is not None:
        unknown = wanted - set(_RULE_CLASSES)
        if unknown:
            raise ValueError(
                f"unknown rule ids {sorted(unknown)}; "
                f"known: {sorted(_RULE_CLASSES)}"
            )
    return [
        cls() for rule_id, cls in sorted(_RULE_CLASSES.items())
        if wanted is None or rule_id in wanted
    ]


def collect_files(root: Path, paths: Sequence[str]) -> List[Path]:
    """Python files under ``root/<path>`` for each target path."""
    out: List[Path] = []
    for target in paths:
        base = (root / target).resolve()
        if base.is_file() and base.suffix == ".py":
            out.append(base)
            continue
        if not base.is_dir():
            continue
        for candidate in sorted(base.rglob("*.py")):
            if any(part in SKIP_DIRS for part in candidate.parts):
                continue
            out.append(candidate)
    # De-duplicate while preserving deterministic order.
    seen = set()
    unique = []
    for path in out:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def parse_file(root: Path, path: Path) -> ParsedModule:
    """Parse one file; raises SyntaxError for broken sources."""
    rel = path.resolve().relative_to(root.resolve()).as_posix()
    source = path.read_text(encoding="utf-8")
    return parse_source(source, rel)


def parse_source(source: str, rel: str) -> ParsedModule:
    """Parse an in-memory source (the test fixtures' entry point)."""
    tree = ast.parse(source, filename=rel)
    return ParsedModule(rel=rel, source=source, tree=tree)


class Analyzer:
    """Run a rule set over a corpus."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules = list(rules) if rules is not None else all_rules()

    def run(self, modules: Sequence[ParsedModule]) -> Report:
        """Analyze parsed modules and return the report."""
        raw: List[Finding] = []
        for rule in self.rules:
            for module in modules:
                if rule.applies_to(module):
                    raw.extend(rule.check(module))
            if isinstance(rule, ProjectRule):
                scoped = [m for m in modules if rule.applies_to(m)]
                raw.extend(rule.check_project(scoped))

        by_rel = {m.rel: m for m in modules}
        report = Report(files_analyzed=len(modules), rules_run=len(self.rules))
        for finding in sorted(raw, key=sort_key):
            module = by_rel.get(finding.path)
            if module is not None:
                disabled = module.suppressed_rules(finding.line)
                if disabled is None or finding.rule in disabled:
                    continue
            report.findings.append(finding)
        return report

    def run_paths(self, root: Path, paths: Sequence[str]) -> Report:
        """Collect, parse, and analyze files under ``root``.

        Files that fail to parse surface as ``PARSE000`` error findings
        rather than aborting the run.
        """
        modules: List[ParsedModule] = []
        parse_failures: List[Finding] = []
        for path in collect_files(root, paths):
            rel = path.resolve().relative_to(root.resolve()).as_posix()
            try:
                modules.append(parse_file(root, path))
            except SyntaxError as exc:
                parse_failures.append(Finding(
                    rule="PARSE000",
                    path=rel,
                    line=exc.lineno or 1,
                    message=f"file does not parse: {exc.msg}",
                    severity=Severity.ERROR,
                ))
            except (OSError, UnicodeDecodeError) as exc:
                parse_failures.append(Finding(
                    rule="PARSE000",
                    path=rel,
                    line=1,
                    message=f"file is unreadable: {exc}",
                    severity=Severity.ERROR,
                ))
        report = self.run(modules)
        report.findings = sorted(report.findings + parse_failures, key=sort_key)
        return report
