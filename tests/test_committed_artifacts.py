"""Claims test: no committed artifact carries a wall-clock figure.

README states that wall time is measured only by ``perfbench/`` and
that no committed artifact carries a wall-clock speedup.  Every committed
root ``BENCH_*.json`` and every JSON under ``benchmarks/out/`` must
therefore be free of keys that hold wall time: ``speedup`` or any key
ending in ``seconds``.
"""

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = sorted(REPO_ROOT.glob("BENCH_*.json")) + sorted(
    (REPO_ROOT / "benchmarks" / "out").glob("*.json"))


def _wall_clock_keys(node, path="$"):
    if isinstance(node, dict):
        for key, value in node.items():
            where = f"{path}.{key}"
            if key == "speedup" or key.endswith("seconds"):
                yield where
            yield from _wall_clock_keys(value, where)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _wall_clock_keys(value, f"{path}[{i}]")


def test_no_committed_artifact_carries_wall_clock():
    assert any(p.parent == REPO_ROOT for p in ARTIFACTS)
    found = {str(p.relative_to(REPO_ROOT)):
             list(_wall_clock_keys(json.loads(p.read_text())))
             for p in ARTIFACTS}
    assert {path: keys for path, keys in found.items() if keys} == {}
