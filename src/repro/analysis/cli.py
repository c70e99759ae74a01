"""Command-line front end: ``python -m repro.analysis``.

Exit codes: 0 clean, 1 findings (see :meth:`Report.exit_code`), 2 usage
error.  ``--strict`` is what CI runs: any finding of any severity fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import Analyzer, all_rules
from .findings import Report
from .sarif import to_sarif

#: Directories analyzed when no explicit paths are given (those that exist).
DEFAULT_TARGETS = ("src", "tests", "benchmarks")


def find_root(start: Optional[Path] = None) -> Path:
    """Repo root: nearest ancestor of ``start`` holding pyproject.toml."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return here


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description=(
            "Static analysis for the reproduction: determinism auditor, "
            "strategy-contract linter, float-equality, hygiene and "
            "registry-coverage rules."
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help=f"files/directories to analyze (default: {' '.join(DEFAULT_TARGETS)})",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repo root (default: nearest ancestor with pyproject.toml)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail on any finding, warnings included",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", metavar="IDS", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _render_text(report: Report, strict: bool, out) -> None:
    for finding in report.findings:
        print(finding.render(), file=out)
    n = len(report.findings)
    summary = (
        f"{report.files_analyzed} files, {report.rules_run} rules: "
        f"{n} finding{'s' if n != 1 else ''}"
    )
    print(summary, file=out)


def _render_json(report: Report, strict: bool, out) -> None:
    payload = {
        "files_analyzed": report.files_analyzed,
        "rules_run": report.rules_run,
        "findings": [f.to_dict() for f in report.findings],
        "exit_code": report.exit_code(strict=strict),
    }
    print(json.dumps(payload, indent=2), file=out)


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)

    only = None
    if args.select:
        only = [s.strip() for s in args.select.split(",") if s.strip()]
    try:
        rules = all_rules(only=only)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.list_rules:
        for rule in rules:
            scopes = ",".join(rule.scopes) if rule.scopes else "all"
            print(
                f"{'/'.join(rule.ids):28} [{rule.severity}] "
                f"(scope: {scopes}) {rule.description}",
                file=out,
            )
        return 0

    root = (args.root or find_root()).resolve()
    for explicit in args.paths:
        if not (root / explicit).exists() and not Path(explicit).exists():
            print(
                f"error: path {explicit!r} does not exist under {root}",
                file=sys.stderr,
            )
            return 2
    targets: List[str] = list(args.paths) or [
        t for t in DEFAULT_TARGETS if (root / t).exists()
    ]
    if not targets:
        print(f"error: nothing to analyze under {root}", file=sys.stderr)
        return 2

    report = Analyzer(rules=rules).run_paths(root, targets)
    if args.format == "json":
        _render_json(report, args.strict, out)
    elif args.format == "sarif":
        print(json.dumps(to_sarif(report, rules), indent=2), file=out)
    else:
        _render_text(report, args.strict, out)
    return report.exit_code(strict=args.strict)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
