"""Unit tests for the perf ledger and regression gate (repro.obs.ledger)."""

import json
from pathlib import Path

import pytest

from repro.obs import TickClock
from repro.obs import ledger as lg

METRICS = {
    "makespan_s": 10.0,
    "critical_path_s": 6.0,
    "mean_idleness": 0.4,
    "comm_time_s": 2.0,
    "phase_makespan_s.factorization": 5.0,
    "task_count": 100.0,
    "bench.speedup": 3.0,
}
REPO_ROOT = Path(__file__).resolve().parents[2]
CONFIG = {"scenario": "b", "workload": "synth101", "tiles": 8,
          "n_fact": 4, "n_gen": 4, "nodes": 4}


class TestGating:
    def test_gated_metric_set(self):
        assert lg.is_gated("makespan_s")
        assert lg.is_gated("phase_makespan_s.solve")
        assert not lg.is_gated("task_count")
        assert not lg.is_gated("bench.speedup")
        assert not lg.is_gated("critical_path_frac")

    def test_identical_metrics_pass(self):
        checks = lg.compare_metrics(METRICS, METRICS)
        assert checks
        assert not any(c.regressed for c in checks)
        assert all(c.rel_change == 0.0 for c in checks)

    def test_twenty_pct_makespan_regression_trips(self):
        current = dict(METRICS, makespan_s=METRICS["makespan_s"] * 1.2)
        checks = lg.compare_metrics(current, METRICS)
        tripped = [c for c in checks if c.regressed]
        assert [c.metric for c in tripped] == ["makespan_s"]
        assert tripped[0].rel_change == pytest.approx(0.2)

    def test_improvement_never_trips(self):
        current = dict(METRICS, makespan_s=1.0, comm_time_s=0.0)
        assert not any(c.regressed
                       for c in lg.compare_metrics(current, METRICS))

    def test_non_gated_increase_is_informational(self):
        current = dict(METRICS, task_count=1000.0, **{"bench.speedup": 0.1})
        checks = lg.compare_metrics(current, METRICS)
        assert not any(c.regressed for c in checks)

    def test_threshold_is_configurable(self):
        current = dict(METRICS, makespan_s=METRICS["makespan_s"] * 1.2)
        assert not any(c.regressed for c in
                       lg.compare_metrics(current, METRICS, threshold=0.3))
        assert any(c.regressed for c in
                   lg.compare_metrics(current, METRICS, threshold=0.05))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            lg.compare_metrics(METRICS, METRICS, threshold=-0.1)

    def test_one_sided_metrics_skipped(self):
        current = dict(METRICS, **{"new_metric": 5.0})
        baseline = dict(METRICS, **{"old_metric": 5.0})
        compared = {c.metric for c in lg.compare_metrics(current, baseline)}
        assert "new_metric" not in compared
        assert "old_metric" not in compared

    def test_gated_only_filter(self):
        checks = lg.compare_metrics(METRICS, METRICS, gated_only=True)
        assert all(c.gated for c in checks)


class TestLedger:
    def test_append_and_read_round_trip(self, tmp_path):
        ledger = lg.PerfLedger(tmp_path / "ledger.jsonl")
        assert ledger.entries() == []
        entry = lg.make_entry("b", METRICS, config=CONFIG, note="n1",
                              clock=TickClock())
        stamped = ledger.append(entry)
        assert stamped["schema"] == lg.LEDGER_SCHEMA_VERSION
        (read,) = ledger.entries()
        assert read["metrics"] == METRICS
        assert read["config"] == CONFIG
        assert read["note"] == "n1"

    def test_append_only(self, tmp_path):
        ledger = lg.PerfLedger(tmp_path / "ledger.jsonl")
        for i in range(3):
            ledger.append(lg.make_entry("b", dict(METRICS, makespan_s=float(i)),
                                        clock=TickClock()))
        assert [e["metrics"]["makespan_s"]
                for e in ledger.entries()] == [0.0, 1.0, 2.0]

    def test_newer_schema_entries_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        future = {"schema": lg.LEDGER_SCHEMA_VERSION + 1, "label": "b",
                  "metrics": {}}
        path.write_text(json.dumps(future) + "\n\n")
        assert lg.PerfLedger(path).entries() == []

    def test_torn_final_line_skipped_with_warning(self, tmp_path, capsys):
        ledger = lg.PerfLedger(tmp_path / "ledger.jsonl")
        ledger.append(lg.make_entry("b", METRICS, clock=TickClock()))
        with ledger.path.open("a") as fh:
            fh.write('{"label": "b", "metr')  # interrupted append
        (entry,) = ledger.entries()
        assert entry["metrics"] == METRICS
        assert "ledger.jsonl:2: skipping the unparseable final line" in (
            capsys.readouterr().err)

    def test_append_cuts_the_torn_final_line(self, tmp_path, capsys):
        ledger = lg.PerfLedger(tmp_path / "ledger.jsonl")
        ledger.append(lg.make_entry("b", METRICS, clock=TickClock()))
        with ledger.path.open("a") as fh:
            fh.write('{"label": "b", "metr')
        ledger.append(lg.make_entry("c", METRICS, clock=TickClock()))
        assert [e["label"] for e in ledger.entries()] == ["b", "c"]
        assert len(ledger.path.read_text().splitlines()) == 2

    def test_unparseable_earlier_line_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        good = json.dumps({"schema": 1, "label": "b", "metrics": {}})
        path.write_text(good + "\n{not json\n" + good + "\n")
        ledger = lg.PerfLedger(path)
        with pytest.raises(lg.LedgerError, match="ledger.jsonl:2"):
            ledger.entries()
        with pytest.raises(lg.LedgerError):
            ledger.append(lg.make_entry("b", METRICS, clock=TickClock()))
        assert len(path.read_text().splitlines()) == 3

    def test_baseline_matches_label_and_config(self, tmp_path):
        ledger = lg.PerfLedger(tmp_path / "ledger.jsonl")
        other_cfg = dict(CONFIG, tiles=40)
        ledger.append(lg.make_entry("b", {"makespan_s": 1.0},
                                    config=other_cfg, clock=TickClock()))
        ledger.append(lg.make_entry("b", {"makespan_s": 2.0},
                                    config=CONFIG, clock=TickClock()))
        ledger.append(lg.make_entry("c", {"makespan_s": 3.0},
                                    config=CONFIG, clock=TickClock()))
        base = ledger.baseline("b", config=CONFIG)
        assert base["metrics"]["makespan_s"] == 2.0
        # An 8-tile run never gates against a 40-tile baseline.
        assert ledger.baseline("b", config=dict(CONFIG, tiles=99)) is None
        assert ledger.baseline("zz") is None

    def test_baseline_takes_most_recent(self, tmp_path):
        ledger = lg.PerfLedger(tmp_path / "ledger.jsonl")
        ledger.append(lg.make_entry("b", {"makespan_s": 1.0},
                                    config=CONFIG, clock=TickClock()))
        ledger.append(lg.make_entry("b", {"makespan_s": 9.0},
                                    config=CONFIG, clock=TickClock()))
        assert ledger.baseline("b", config=CONFIG)["metrics"] == {
            "makespan_s": 9.0
        }


class TestCheckAgainstLedger:
    def test_no_baseline_is_non_blocking(self, tmp_path):
        report = lg.check_against_ledger(
            lg.PerfLedger(tmp_path / "none.jsonl"), "b", METRICS,
            config=CONFIG,
        )
        assert not report.baseline_found
        assert report.ok
        assert "non-blocking" in lg.render_check_report(report)

    def test_pass_then_fail_on_injected_regression(self, tmp_path):
        ledger = lg.PerfLedger(tmp_path / "ledger.jsonl")
        ledger.append(lg.make_entry("b", METRICS, config=CONFIG,
                                    clock=TickClock()))
        ok = lg.check_against_ledger(ledger, "b", METRICS, config=CONFIG)
        assert ok.baseline_found and ok.ok
        assert "PASS" in lg.render_check_report(ok)

        slow = dict(METRICS, makespan_s=METRICS["makespan_s"] * 1.2)
        bad = lg.check_against_ledger(ledger, "b", slow, config=CONFIG)
        assert bad.baseline_found and not bad.ok
        assert [c.metric for c in bad.regressions] == ["makespan_s"]
        rendered = lg.render_check_report(bad)
        assert "FAIL" in rendered and "makespan_s" in rendered


class TestGatedMetricsAreCompared:
    """A gated metric the gate never sees would pass silently."""

    def test_every_gated_metric_is_produced_and_baselined(self,
                                                          monkeypatch):
        monkeypatch.setenv("REPRO_TILES_101", "8")
        monkeypatch.setenv("REPRO_TILES_128", "8")
        produced, _ = lg.collect_metrics("b")
        ledger = lg.PerfLedger(REPO_ROOT / lg.DEFAULT_LEDGER)
        newest = [e for e in ledger.entries() if e.get("label") == "b"][-1]
        baselined = newest["metrics"]
        for name in lg.GATED_METRICS:
            assert name in produced, name
            assert name in baselined, name
        for prefix in lg.GATED_PREFIXES:
            family = {k for k in produced if k.startswith(prefix)}
            assert family, prefix
            assert family <= set(baselined), prefix


class TestRootReport:
    def test_writes_canonical_payload(self, tmp_path):
        out = lg.write_root_report("b", METRICS, config=CONFIG,
                                   path=tmp_path / "BENCH_timeline.json",
                                   extra={"recorded_at": 0.0})
        payload = json.loads(out.read_text())
        assert payload["schema"] == lg.LEDGER_SCHEMA_VERSION
        assert payload["label"] == "b"
        assert payload["metrics"] == METRICS
        assert payload["config"] == CONFIG
        assert payload["recorded_at"] == 0.0
