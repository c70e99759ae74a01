"""Command-line front end: ``python -m repro.analysis`` / ``repro lint``.

Exit codes: 0 clean, 1 findings (see :meth:`Report.exit_code`), 2 usage
error.  ``--strict`` is what CI runs: any non-baselined finding of any
severity fails, and stale baseline entries fail too.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .baseline import DEFAULT_BASELINE_NAME, Baseline
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
            "strategy-contract linter, float-equality, hygiene, "
            "process-pool and registry-coverage rules."
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
        "--baseline", type=Path, default=None,
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE_NAME})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail on any non-baselined finding and on stale baseline entries",
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
        "--prune-baseline", action="store_true",
        help="rewrite the baseline keeping only entries that still match",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _render_text(report: Report, strict: bool, out) -> None:
    for finding in report.findings:
        print(finding.render(), file=out)
    for entry in report.stale_baseline:
        print(
            f"{entry.path}: stale suppression: baseline entry for "
            f"{entry.rule} no longer matches any finding: "
            f"{entry.context!r} — delete it or run --prune-baseline",
            file=out,
        )
    n = len(report.findings)
    summary = (
        f"{report.files_analyzed} files, {report.rules_run} rules: "
        f"{n} finding{'s' if n != 1 else ''}"
    )
    if report.baselined:
        summary += f", {len(report.baselined)} baselined"
    if report.stale_baseline:
        summary += f", {len(report.stale_baseline)} stale baseline entries"
    print(summary, file=out)


def _render_json(report: Report, strict: bool, out) -> None:
    payload = {
        "files_analyzed": report.files_analyzed,
        "rules_run": report.rules_run,
        "findings": [f.to_dict() for f in report.findings],
        "baselined": [f.to_dict() for f in report.baselined],
        "stale_baseline": [
            {"rule": e.rule, "path": e.path, "context": e.context,
             "reason": e.reason}
            for e in report.stale_baseline
        ],
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

    baseline_path = args.baseline or (root / DEFAULT_BASELINE_NAME)
    if args.no_baseline or args.write_baseline:
        baseline = Baseline()
    else:
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"error: bad baseline file: {exc}", file=sys.stderr)
            return 2

    analyzer = Analyzer(rules=rules, baseline=baseline)
    report = analyzer.run_paths(root, targets)

    if args.prune_baseline:
        stale = {e.fingerprint for e in report.stale_baseline}
        kept = [e for e in baseline.entries if e.fingerprint not in stale]
        pruned = Baseline(entries=kept)
        pruned.write(baseline_path)
        print(
            f"pruned {len(baseline.entries) - len(kept)} stale "
            f"entr{'y' if len(baseline.entries) - len(kept) == 1 else 'ies'}, "
            f"kept {len(kept)} in {baseline_path}",
            file=out,
        )
        return 0

    if args.write_baseline:
        Baseline.from_findings(report.findings).write(baseline_path)
        print(
            f"wrote {len(report.findings)} entries to {baseline_path}",
            file=out,
        )
        return 0

    if args.format == "json":
        _render_json(report, args.strict, out)
    elif args.format == "sarif":
        print(json.dumps(to_sarif(report, rules), indent=2), file=out)
    else:
        _render_text(report, args.strict, out)
    return report.exit_code(strict=args.strict)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
