"""CLI tracing flags and the `repro stats` aggregation command.

``repro compare --trace --trace-ticks`` must produce a parseable JSONL
trace (header first, deterministic clock), and ``repro stats`` must
render the committed golden text for it byte-for-byte -- the cold-cache
tick trace is a pure function of the code, so the rendered aggregate is
too.  Regenerate after an intended change::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_cli_stats.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import TRACE_SCHEMA_VERSION, read_trace

GOLDEN = Path(__file__).parent / "goldens" / "stats_compare_b.txt"


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """One cold-cache, 8-tile ``compare b`` tick trace shared by the module.

    Every test only reads the trace, so building it once is equivalent
    to rebuilding it per test (the trace is a pure function of the code).
    """
    root = tmp_path_factory.mktemp("stats")
    path = root / "trace.jsonl"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_TILES_101", "8")
        mp.setenv("REPRO_TILES_128", "8")
        mp.setenv("REPRO_CACHE_DIR", str(root / "cache"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["compare", "b", "--reps", "2",
                         "--trace", str(path), "--trace-ticks"]) == 0
    return path


class TestTraceFlag:
    def test_trace_file_is_parseable_jsonl(self, trace_path):
        records = read_trace(trace_path)
        assert len(records) > 100
        for record in records:
            assert "kind" in record

    def test_header_first_with_deterministic_clock(self, trace_path):
        header = read_trace(trace_path)[0]
        assert header["kind"] == "trace.start"
        assert header["schema"] == TRACE_SCHEMA_VERSION
        assert header["clock"] == "ticks"
        assert header["wall_time"] == 0.0

    def test_trace_carries_all_instrumented_kinds(self, trace_path):
        kinds = {r["kind"] for r in read_trace(trace_path)}
        assert {"trace.start", "simulator.run", "decision", "cell",
                "span", "summary"} <= kinds

    def test_decisions_attribute_cells_and_workers(self, trace_path):
        decisions = [r for r in read_trace(trace_path)
                     if r["kind"] == "decision"]
        assert decisions
        for record in decisions:
            assert record["cell_id"].count("/") == 2
            assert record["worker"]  # stable id under the tick clock


#: Pinned top-level schema of `repro stats --format json`.
JSON_SCHEMA = {
    "schema": int,
    "records": int,
    "clock": str,
    "trace_schema": int,
    "simulations": int,
    "sim_total_s": float,
    "phases": dict,
    "strategies": dict,
    "spans": dict,
    "counters": dict,
}


class TestStatsJson:
    @pytest.fixture()
    def payload(self, trace_path, capsys):
        assert main(["stats", str(trace_path), "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_schema_is_stable(self, payload):
        assert set(payload) == set(JSON_SCHEMA)
        for key, expected in JSON_SCHEMA.items():
            assert isinstance(payload[key], expected), (key, payload[key])
        assert payload["schema"] == 3
        assert "histograms" not in payload
        assert payload["clock"] == "ticks"

    def test_phase_and_strategy_blocks(self, payload):
        assert payload["simulations"] > 0
        for block in payload["phases"].values():
            assert set(block) == {"sims", "total_s", "mean_s"}
        for block in payload["strategies"].values():
            assert set(block) == {"decisions", "cells", "arms",
                                  "mean_overhead", "overhead_p95",
                                  "overhead_p99", "mean_acquisition",
                                  "mean_posterior_sd", "observed_total_s"}
            assert block["arms"] == sorted(block["arms"])
            assert block["overhead_p95"] <= block["overhead_p99"]

    def test_gp_telemetry_surfaced(self, payload):
        gp = [b for name, b in payload["strategies"].items()
              if name.startswith("GP")]
        assert gp, "compare runs include GP strategies"
        assert any(b["mean_posterior_sd"] > 0.0 for b in gp)

    def test_json_agrees_with_text_rendering(self, payload, trace_path,
                                             capsys):
        assert main(["stats", str(trace_path)]) == 0
        text = capsys.readouterr().out
        assert f"trace: {payload['records']} records" in text


class TestStatsCommand:
    def test_stats_matches_golden(self, trace_path, capsys):
        assert main(["stats", str(trace_path)]) == 0
        out = capsys.readouterr().out
        if os.environ.get("REPRO_REGEN_GOLDENS"):
            GOLDEN.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN.write_text(out)
            pytest.skip(f"regenerated {GOLDEN}")
        assert GOLDEN.exists(), (
            f"golden missing; run with REPRO_REGEN_GOLDENS=1 to create "
            f"{GOLDEN}"
        )
        assert out == GOLDEN.read_text()

    def test_stats_sections_present(self, trace_path, capsys):
        assert main(["stats", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "per-phase" in out
        assert "per-strategy (decision log)" in out
        assert "overhead/iter [ticks]" in out
        assert "simulator.runs" in out


class TestDamagedTraces:
    """A torn final line warns; corruption or a missing file exits 2."""

    def test_torn_final_line_warns_and_aggregates_the_rest(
            self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind":"span"}\n{"kind":"sp')
        assert main(["stats", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("warning:") == 1
        assert f"{path}:2:" in captured.err
        assert "trace: 1 records" in captured.out

    def test_corrupt_inner_line_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind":"sp\n{"kind":"span"}\n')
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:1:")

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:")
