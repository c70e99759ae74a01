"""Claims tests for the committed reports.

README states that wall time is measured only by ``perfbench/`` and
that no committed artifact carries a wall-clock figure.  Every committed
``BENCH_*.json``, every JSON under ``benchmarks/out/`` and every JSONL
under ``benchmarks/`` must therefore be free of keys that hold wall
time: any key containing ``speedup``, any key ending in ``seconds``, and
``recorded_at``.  README also documents the one layout of the root
reports: schema 2, each metric a ``{value, unit}`` pair with a unit from
a closed set.  The Figure 6 gains quoted in README and EXPERIMENTS are
read back from ``benchmarks/out/fig6.txt``.  Every file path README,
DESIGN and EXPERIMENTS put in backticks must exist in the checkout, or
be a file some command writes on demand, listed in ``GENERATED`` with
that command.
"""

import hashlib
import json
import os
import re
from pathlib import Path, PurePosixPath

from repro.obs.sink import REPORT_UNITS

REPO_ROOT = Path(__file__).resolve().parents[1]
ROOT_REPORTS = sorted(REPO_ROOT.glob("BENCH_*.json"))
ARTIFACTS = ROOT_REPORTS + sorted(
    (REPO_ROOT / "benchmarks" / "out").glob("*.json")) + sorted(
    (REPO_ROOT / "benchmarks").glob("*.jsonl"))

#: The units README documents for the root reports.
UNITS = {"sim_s", "ticks", "bytes", "count", "ratio", "1/tick"}


def _documents(path):
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in path.read_text().splitlines()
                if line.strip()]
    return [json.loads(path.read_text())]


def _wall_clock_keys(node, path="$"):
    if isinstance(node, dict):
        for key, value in node.items():
            where = f"{path}.{key}"
            if ("speedup" in key or key.endswith("seconds")
                    or key == "recorded_at"):
                yield where
            yield from _wall_clock_keys(value, where)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _wall_clock_keys(value, f"{path}[{i}]")


def test_no_committed_artifact_carries_wall_clock():
    assert any(p.parent == REPO_ROOT for p in ARTIFACTS)
    found = {str(p.relative_to(REPO_ROOT)):
             [key for doc in _documents(p) for key in _wall_clock_keys(doc)]
             for p in ARTIFACTS}
    assert {path: keys for path, keys in found.items() if keys} == {}


def test_root_reports_share_one_unit_carrying_schema():
    assert REPORT_UNITS == UNITS
    assert {p.name for p in ROOT_REPORTS} == {
        "BENCH_faults.json", "BENCH_serve.json", "BENCH_timeline.json"}
    for path in ROOT_REPORTS:
        report = json.loads(path.read_text())
        assert report["schema"] == 2, path.name
        assert {"label", "config", "metrics"} <= set(report), path.name
        assert report["metrics"], path.name
        for name, metric in report["metrics"].items():
            assert set(metric) == {"value", "unit"}, (path.name, name)
            assert isinstance(metric["value"], (int, float)), (path.name, name)
            assert metric["unit"] in UNITS, (path.name, name)


#: Figure 6 columns, in the order of fig6.txt and of EXPERIMENTS' table.
FIG6_COLUMNS = ("DC", "Right-Left", "Brent", "UCB", "UCB-struct", "GP-UCB",
                "GP-discontinuous", "oracle")
_GAIN_ROW = re.compile(r"^\s*\((\w)\)((?:\s+[+-]\d+\.\d%){8})\s*$")


def _fig6_matrix():
    """{scenario: {column: gain}} from the committed Figure 6 summary."""
    text = (REPO_ROOT / "benchmarks" / "out" / "fig6.txt").read_text()
    matrix = {}
    for line in text.splitlines():
        m = _GAIN_ROW.match(line)
        if m:
            gains = [float(g.rstrip("%")) for g in m.group(2).split()]
            matrix[m.group(1)] = dict(zip(FIG6_COLUMNS, gains))
    return matrix


def test_experiments_gain_matrix_matches_fig6():
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    table = text.split("Measured gain matrix", 1)[1].split("\n\n", 2)[1]
    quoted = {}
    for line in table.splitlines()[2:]:
        cells = [c.strip().strip("*") for c in line.strip("|").split("|")]
        quoted[cells[0].strip("()")] = dict(
            zip(FIG6_COLUMNS, map(float, cells[1:])))
    matrix = _fig6_matrix()
    assert len(quoted) == 16 and all(len(r) == 8 for r in quoted.values())
    assert quoted == matrix


def test_readme_figure6_gains_match_fig6():
    text = " ".join((REPO_ROOT / "README.md").read_text().split())
    best = re.search(r"\+(\d+\.\d) % \(scenario \((\w)\)", text)
    p_gain = re.search(r"\((\w)\) at \+(\d+\.\d) %", text)
    assert best and p_gain
    gp_disc = {key: row["GP-discontinuous"]
               for key, row in _fig6_matrix().items()}
    assert gp_disc[best.group(2)] == float(best.group(1)) == max(
        gp_disc.values())
    assert gp_disc[p_gain.group(1)] == float(p_gain.group(2))


_CAMPAIGN_ROW = re.compile(
    r"^\| ([a-p]) \| (crash|compound) \| (\d+\.\d\d) \| (\d+\.\d\d) \| "
    r"(yes|no) \|$")

#: sha256 of the campaign table's cells: the table is a frozen record of
#: a 16-scenario run that no CI job repeats, so editing it is deliberate
#: (rerun the campaign, then update the prose and this digest together).
CAMPAIGN_TABLE_SHA256 = (
    "d62d739da43926d51ddac56c92947b09b56de762285dc24b739f902156c041c3")


def test_experiments_fault_campaign_claims():
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## Fault campaign, all 16 scenarios", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [_CAMPAIGN_ROW.match(line).groups()
            for line in section.splitlines() if line.startswith("| ")
            and not line.startswith(("| scenario", "|---"))]
    assert len(rows) == 32
    assert {(key, sched) for key, sched, *_ in rows} == {
        (key, sched) for key in "abcdefghijklmnop"
        for sched in ("crash", "compound")}
    gains = {}
    for key, sched, raw, resilient, improved in rows:
        raw, resilient = float(raw), float(resilient)
        assert improved == ("yes" if resilient < raw else "no"), (key, sched)
        gains[(key, sched)] = 100.0 * (1.0 - resilient / raw)
    prose = " ".join(section.split())
    count = re.search(r"improves (\d+) of (\d+) \(scenario, schedule\)",
                      prose)
    best = re.search(r"up to (\d+) % \((\w), (\w+)\)", prose)
    assert count and best
    assert (int(count.group(1)), int(count.group(2))) == (
        sum(g > 0 for g in gains.values()), len(rows))
    top = max(gains, key=gains.get)
    assert (best.group(2), best.group(3)) == top
    assert int(best.group(1)) == round(gains[top])
    digest = hashlib.sha256(
        "\n".join("|".join(row) for row in rows).encode()).hexdigest()
    assert digest == CAMPAIGN_TABLE_SHA256


#: Paths the docs cite that a command writes on demand, never committed,
#: mapped to the command that writes them.
GENERATED = {
    ".repro_cache/": "any sweep (`repro sweep`, `compare`, `fig6`): "
                     "the default REPRO_CACHE_DIR",
    "TIMELINE_<s>.trace.json": "repro timeline <s>",
    "BENCH_fuzz.json": "repro fuzz run",
}

_TICKED = re.compile(r"`([^`\s]+)`")
#: A relative path, glob or ``<placeholder>`` name: no spaces, calls or
#: leading "/" (which excludes ``1/tick``, ``float(...)`` and ``/``).
_PATHLIKE = re.compile(r"^[A-Za-z_][\w.<>*-]*(/[\w.<>*-]+)*/?$")
#: What makes a path-like token a file: one of these extensions.  Module
#: names (``repro.gp``) and metric names (``gp.fit_ms_p50``) have none.
_FILE = re.compile(r"\.(py|json|jsonl|txt|md|toml|ya?ml|html|csv|svg)$")


def _checkout():
    """Relative file and directory paths of the working tree.

    Untracked files count too, so only a clean checkout (CI) catches a
    cited file that exists only locally.
    """
    files, dirs = [], []
    for here, subdirs, names in os.walk(REPO_ROOT):
        subdirs[:] = [d for d in subdirs if d not in (".git", "__pycache__")]
        rel = PurePosixPath(Path(here).relative_to(REPO_ROOT).as_posix())
        dirs.append(rel)
        files.extend(rel / name for name in names)
    return files, dirs


def _cited_paths(doc):
    """(line number, token) of every backticked file or directory path.

    A directory ends in "/", a file in a known extension; a dotted token
    without "/" (``.trace.json``) is an extension, not a path.
    """
    for number, line in enumerate(doc.read_text().splitlines(), 1):
        for token in _TICKED.findall(line):
            if token.startswith(".") and "/" not in token:
                continue
            if _PATHLIKE.match(token.lstrip(".")) and (
                    token.endswith("/") or _FILE.search(token)):
                yield number, token


def test_doc_file_paths_exist_or_are_generated():
    """A bare name (``simulator.py``) or partial path (``gp/regression.py``)
    resolves against the tail of any checkout path, globs included."""
    files, dirs = _checkout()
    missing = []
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        for number, token in _cited_paths(REPO_ROOT / name):
            if token in GENERATED:
                continue
            pool = dirs if token.endswith("/") else files
            if not any(p.match(token.rstrip("/")) for p in pool):
                missing.append(f"{name}:{number}: {token}")
    assert missing == []
