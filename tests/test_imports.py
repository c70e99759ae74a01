"""Import-level guards: scripts outside ``src/`` and the import weight.

Benchmarks and examples are not collected by the tier-1 run, so a name
deleted from ``src/`` that one of them still imports would otherwise
surface only when someone regenerates a figure.  Importing each module
(in a fresh interpreter, so the benchmarks' ``conftest`` cannot clash
with the test suite's) fails fast instead; nothing runs, because the
benches only define test functions and the examples guard ``main()``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("benchmarks/bench_*.py")) + sorted(
    ROOT.glob("examples/*.py"))

_IMPORT_ALL = """
import importlib.util, json, sys, traceback
errors = {}
for path in sys.argv[1:]:
    spec = importlib.util.spec_from_file_location("_script", path)
    try:
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    except Exception:
        errors[path] = traceback.format_exc(limit=3)
print(json.dumps(errors))
"""


def _fresh_python(code, *args, extra_path=()):
    path = [str(ROOT / "src"), *map(str, extra_path)]
    env = {"PYTHONPATH": ":".join(path), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True,
        text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.fixture(scope="module")
def import_errors():
    out = _fresh_python(_IMPORT_ALL, *map(str, SCRIPTS),
                        extra_path=[ROOT / "benchmarks"])
    return json.loads(out)


def test_every_script_was_found():
    names = {p.name for p in SCRIPTS}
    assert {"bench_fig6.py", "bench_ablation.py", "quickstart.py"} <= names


@pytest.mark.parametrize("script", SCRIPTS,
                         ids=[p.stem for p in SCRIPTS])
def test_script_imports(import_errors, script):
    assert str(script) not in import_errors, import_errors[str(script)]


def test_core_imports_leave_scipy_stats_out():
    """``scipy.stats`` is a heavy import that no production path needs."""
    out = _fresh_python(
        "import sys, repro, repro.evaluate, repro.serve.service; "
        "print('scipy.stats' in sys.modules)")
    assert out.strip() == "False"
