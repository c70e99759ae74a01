"""Command-line front end: ``python -m repro.analysis [paths ...]``.

Checks the given files or directories (default ``src``), relative to the
repo root: the nearest ancestor of the working directory that holds
``pyproject.toml``.  Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .engine import analyze_paths


def find_root(start: Optional[Path] = None) -> Path:
    """Repo root: nearest ancestor of ``start`` holding pyproject.toml."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return here


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description=(
            "DET001: no global or unseeded RNG and no wall-clock reads "
            "in src/."
        ),
    )
    parser.add_argument("paths", nargs="*",
                        help="files/directories to analyze (default: src)")
    args = parser.parse_args(argv)

    root = find_root()
    for explicit in args.paths:
        if not (root / explicit).exists():
            print(f"error: path {explicit!r} does not exist under {root}",
                  file=sys.stderr)
            return 2
    if not args.paths and not (root / "src").exists():
        print(f"error: nothing to analyze under {root}", file=sys.stderr)
        return 2

    report = analyze_paths(root, args.paths or ["src"])
    for finding in report.findings:
        print(finding.render(), file=out)
    n = len(report.findings)
    print(f"{len(report.files)} files: {n} finding{'s' if n != 1 else ''}",
          file=out)
    return report.exit_code()
