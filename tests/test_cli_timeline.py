"""`repro timeline`: CLI behaviour and byte-determinism of the export.

The Chrome-trace JSON must be byte-identical across two consecutive
runs (the artifact is a pure function of the simulated plan).
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

ARTIFACTS = ("TIMELINE_b.trace.json",)
REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def small(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TILES_101", "8")
    monkeypatch.setenv("REPRO_TILES_128", "8")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "banks"))
    monkeypatch.chdir(tmp_path)


def export(tmp_path, name, extra=()):
    out = tmp_path / name
    assert main(["timeline", "b", "--out", str(out), *extra]) == 0
    assert sorted(f.name for f in out.iterdir()) == list(ARTIFACTS)
    return {a: (out / a).read_bytes() for a in ARTIFACTS}


class TestDeterminism:
    def test_byte_identical_across_consecutive_runs(self, tmp_path, capsys):
        first = export(tmp_path, "run1")
        second = export(tmp_path, "run2")
        assert first == second


class TestArtifacts:
    def test_chrome_trace_parses_with_invariants(self, tmp_path, capsys):
        files = export(tmp_path, "out")
        trace = json.loads(files["TIMELINE_b.trace.json"])
        assert trace["traceEvents"]
        other = trace["otherData"]
        assert other["schema"] == 1
        assert 0.0 < other["critical_path_s"] <= other["makespan_s"] + 1e-9
        assert 0.0 <= other["mean_idleness"] <= 1.0


class TestOutput:
    def test_summary_and_ascii(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["timeline", "b", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "makespan" in text
        assert "critical path" in text
        assert "~comm" in text  # NIC occupancy rows of the ASCII art
        assert "TIMELINE_b.trace.json" in text

    def test_explicit_plan_changes_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["timeline", "b", "--out", str(out),
                     "--n-fact", "2", "--n-gen", "3"]) == 0
        assert "n_gen=3, n_fact=2" in capsys.readouterr().out

    def test_invalid_plan_rejected(self, tmp_path, capsys):
        """Scenario b has 14 nodes: a larger count is a usage error."""
        out = tmp_path / "out"
        for flag in ("--n-fact", "--n-gen"):
            with pytest.raises(SystemExit) as exc:
                main(["timeline", "b", "--out", str(out), flag, "999"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"{flag}: must be <= 14" in err
            assert "Traceback" not in err
        assert not out.exists()


class TestReport:
    """``--report`` writes ``BENCH_timeline.json`` from the same run."""

    def test_writes_report_with_units(self, tmp_path, capsys):
        files = export(tmp_path, "out", ["--report", "BENCH_timeline.json"])
        report = json.loads((tmp_path / "BENCH_timeline.json").read_text())
        assert report["schema"] == 2
        assert report["label"] == "b"
        assert report["config"]["tiles"] == 8
        assert set(report) == {"schema", "label", "config", "metrics"}
        metrics = report["metrics"]
        assert metrics["makespan_s"]["unit"] == "sim_s"
        assert metrics["comm_bytes"]["unit"] == "bytes"
        assert metrics["task_count"]["unit"] == "count"
        assert metrics["phase_makespan_s.solve"]["unit"] == "sim_s"
        other = json.loads(files["TIMELINE_b.trace.json"])["otherData"]
        assert metrics["makespan_s"]["value"] == other["makespan_s"]

    def test_report_is_byte_identical_across_runs(self, tmp_path, capsys):
        export(tmp_path, "run1", ["--report", "one.json"])
        export(tmp_path, "run2", ["--report", "two.json"])
        assert (tmp_path / "one.json").read_bytes() == \
            (tmp_path / "two.json").read_bytes()

    def test_committed_report_has_every_metric(self, tmp_path, capsys):
        """The committed report is diffed in CI, so every metric a run
        produces must be in it, with the same unit (the key set does not
        depend on the tile count)."""
        export(tmp_path, "out", ["--report", "BENCH_timeline.json"])
        fresh = json.loads((tmp_path / "BENCH_timeline.json").read_text())
        committed = json.loads((REPO_ROOT / "BENCH_timeline.json").read_text())
        assert {k: m["unit"] for k, m in fresh["metrics"].items()} == \
            {k: m["unit"] for k, m in committed["metrics"].items()}

    def test_no_report_by_default(self, tmp_path, capsys):
        export(tmp_path, "out")
        assert not list(tmp_path.glob("BENCH_*.json"))
