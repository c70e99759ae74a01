"""Dev aid: approximate line coverage of one package under pytest.

Stdlib-only stand-in for pytest-cov, for machines without it: a
settrace hook records executed lines in the package's modules while
pytest runs, and executable lines come from compiled code objects.

Usage: PYTHONPATH=src python scripts/dev_cov.py PACKAGE [pytest args...]
e.g.   PYTHONPATH=src python scripts/dev_cov.py repro.gp -q tests/gp tests/strategies

Without pytest args it runs ``tests/<last package component>``.
"""

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

hit = {}


def make_tracer(target):
    def tracer(frame, event, arg):
        fn = frame.f_code.co_filename
        if not fn.startswith(target):
            return None
        if event == "line":
            hit.setdefault(fn, set()).add(frame.f_lineno)
        return tracer
    return tracer


def executable_lines(path):
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines = set()
    stack = [code]
    while stack:
        co = stack.pop()
        for _, _, ln in co.co_lines():
            if ln:  # 0 marks synthetic module-entry code, not a source line
                lines.add(ln)
        for const in co.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    return lines


def main():
    import pytest

    if len(sys.argv) < 2 or sys.argv[1].startswith("-"):
        sys.exit("usage: dev_cov.py PACKAGE [pytest args...]")
    package = sys.argv[1].split(".")
    target = os.path.join(ROOT, "src", *package) + os.sep
    if not os.path.isdir(target):
        sys.exit(f"no package directory {target}")
    tracer = make_tracer(target)
    sys.settrace(tracer)
    threading.settrace(tracer)
    rc = pytest.main(sys.argv[2:] or ["-q", os.path.join("tests", package[-1])])
    sys.settrace(None)

    total_exec = total_hit = 0
    print()
    paths = sorted(os.path.join(d, f) for d, _, files in os.walk(target)
                   for f in files if f.endswith(".py"))
    for path in paths:
        name = os.path.relpath(path, target)
        ex = executable_lines(path)
        got = hit.get(path, set()) & ex
        total_exec += len(ex)
        total_hit += len(got)
        pct = 100.0 * len(got) / len(ex) if ex else 100.0
        missing = sorted(ex - got)
        short = ",".join(map(str, missing[:20]))
        print(f"{name:20s} {pct:6.1f}%  ({len(got)}/{len(ex)})"
              + (f"  missing: {short}{'...' if len(missing) > 20 else ''}"
                 if missing else ""))
    print(f"{'TOTAL':20s} {100.0 * total_hit / total_exec:6.1f}%"
          f"  ({total_hit}/{total_exec})")
    sys.exit(rc)


if __name__ == "__main__":
    main()
