"""Golden characterization of the `repro bench` CLI.

Pins the JSON schema of ``BENCH_harness.json`` (keys and types -- the
perf-trajectory tooling parses it) and the exit codes for bad
``--workers`` / unknown scenarios.
"""

import json

import pytest

from repro.cli import main

BENCH_ARGS = [
    "bench", "--scenarios", "b", "--strategies", "DC", "UCB",
    "--reps", "2", "--iterations", "10", "--workers", "2",
]

#: The pinned top-level schema: key -> required type(s).
TOP_LEVEL_SCHEMA = {
    "schema": int,
    "config": dict,
    "serial_seconds": float,
    "parallel_seconds": float,
    "speedup": float,
    "identical": bool,
    "cache": dict,
    "cache_cold": dict,
    "phases": dict,
    "cells": list,
}

CONFIG_SCHEMA = {
    "scenarios": list,
    "strategies": list,
    "iterations": int,
    "reps": int,
    "workers": int,
    "augment": int,
}

CACHE_STATS_SCHEMA = {
    "hits": int,
    "misses": int,
    "hit_rate": float,
    "entries": int,
}

CACHE_SCHEMA = dict(CACHE_STATS_SCHEMA, preloaded_entries=int)

PHASES_SCHEMA = {
    "sweep_serial_seconds": float,
    "eval_serial_seconds": float,
    "sweep_warm_seconds": float,
    "eval_parallel_seconds": float,
}

CELL_SCHEMA = {"scenario": str, "strategy": str, "rep": int, "seconds": float}


@pytest.fixture(autouse=True)
def small(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TILES_101", "10")
    monkeypatch.setenv("REPRO_TILES_128", "10")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "banks"))
    # The default --root-out writes BENCH_harness.json into the cwd.
    monkeypatch.chdir(tmp_path)


def _check(payload: dict, schema: dict) -> None:
    assert set(payload) == set(schema)
    for key, expected in schema.items():
        assert isinstance(payload[key], expected), (key, payload[key])


class TestBenchReportSchema:
    @pytest.fixture()
    def report(self, tmp_path):
        out = tmp_path / "out" / "report.json"
        assert main(BENCH_ARGS + ["--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_top_level_schema_is_stable(self, report):
        _check(report, TOP_LEVEL_SCHEMA)
        assert report["schema"] == 1

    def test_config_echoes_invocation(self, report):
        _check(report["config"], CONFIG_SCHEMA)
        assert report["config"]["scenarios"] == ["b"]
        assert report["config"]["strategies"] == ["DC", "UCB"]
        assert report["config"]["workers"] == 2

    def test_cache_and_phase_blocks(self, report):
        _check(report["cache"], CACHE_SCHEMA)
        _check(report["cache_cold"], CACHE_STATS_SCHEMA)
        _check(report["phases"], PHASES_SCHEMA)
        # Pass B is fully warm: every sweep lookup is a hit.
        assert report["cache"]["hit_rate"] == 1.0
        assert report["cache"]["misses"] == 0

    def test_per_cell_timings(self, report):
        # 2 baselines + 2 strategies, 2 reps each, one scenario.
        assert len(report["cells"]) == 4 * 2
        for cell in report["cells"]:
            _check(cell, CELL_SCHEMA)
            assert cell["scenario"] == "b"
            assert cell["seconds"] >= 0.0
        names = {c["strategy"] for c in report["cells"]}
        assert names == {"All-nodes", "Oracle", "DC", "UCB"}

    def test_parallel_identical_to_serial(self, report):
        assert report["identical"] is True
        assert report["speedup"] > 0.0

    def test_root_copy_mirrors_report(self, report, tmp_path):
        root = tmp_path / "BENCH_harness.json"
        assert root.exists()
        assert json.loads(root.read_text()) == report

    def test_root_copy_can_be_disabled(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(BENCH_ARGS + ["--out", str(out), "--root-out", ""]) == 0
        assert not (tmp_path / "BENCH_harness.json").exists()

    def test_spill_warms_the_next_invocation(self, tmp_path):
        out = tmp_path / "out" / "BENCH_harness.json"
        assert main(BENCH_ARGS + ["--out", str(out)]) == 0
        first = json.loads(out.read_text())
        assert first["cache"]["preloaded_entries"] == 0
        assert (out.parent / "BENCH_durations.json").exists()

        assert main(BENCH_ARGS + ["--out", str(out)]) == 0
        second = json.loads(out.read_text())
        assert second["cache"]["preloaded_entries"] > 0
        # With the spill preloaded even pass A is warm.
        assert second["cache_cold"]["hits"] > 0

    def test_no_spill_flag(self, tmp_path):
        out = tmp_path / "BENCH_harness.json"
        assert main(BENCH_ARGS + ["--out", str(out), "--no-spill"]) == 0
        report = json.loads(out.read_text())
        assert report["cache"]["preloaded_entries"] == 0
        assert not (tmp_path / "BENCH_durations.json").exists()


class TestBenchExitCodes:
    def test_zero_workers_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--workers", "0"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_negative_workers_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--workers", "-3"])
        assert exc.value.code == 2

    def test_unknown_scenario_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--scenarios", "zz"])
        assert exc.value.code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_strategy_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--strategies", "Nope"])
        assert exc.value.code == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_non_integer_workers_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--workers", "two"])
        assert exc.value.code == 2  # argparse usage error

    def test_serial_parallel_divergence_exits_1(self, monkeypatch, capsys):
        from repro.evaluate import bench

        real = bench.run_harness_benchmark
        monkeypatch.setattr(bench, "run_harness_benchmark",
                            lambda **kw: dict(real(**kw), identical=False))
        with pytest.raises(SystemExit) as exc:
            main(BENCH_ARGS + ["--root-out", ""])
        assert exc.value.code == 1
        assert "identical: False" in capsys.readouterr().out

    def test_simfast_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--simfast"])
        assert exc.value.code == 2
        assert "--simfast" in capsys.readouterr().err
