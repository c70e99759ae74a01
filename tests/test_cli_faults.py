"""Characterization of the `repro faults` CLI."""

import json

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def small(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TILES_101", "10")
    monkeypatch.setenv("REPRO_TILES_128", "10")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "banks"))
    monkeypatch.chdir(tmp_path)


class TestFaultsList:
    def test_lists_every_canned_schedule(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("straggler", "crash", "interference", "netdeg",
                     "compound"):
            assert name in out

    def test_kinds_column(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out and "network" in out


class TestFaultsDescribe:
    def test_describe_mentions_the_faults(self, capsys):
        assert main(["faults", "describe", "crash"]) == 0
        out = capsys.readouterr().out
        assert "crash" in out
        assert "fingerprint" in out

    def test_describe_json_is_parseable(self, capsys):
        assert main(["faults", "describe", "crash", "--json"]) == 0
        out = capsys.readouterr().out
        blob = json.loads(out.strip().splitlines()[-1])
        assert blob["label"] == "crash"
        assert blob["faults"]

    def test_unknown_schedule_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["faults", "describe", "meteor"])
        assert exc.value.code == 2
        assert "unknown schedule" in capsys.readouterr().err


class TestFaultsRun:
    RUN_ARGS = [
        "faults", "run", "b", "--schedules", "crash", "--strategies",
        "UCB", "Resilient(UCB)", "--reps", "2", "--iterations", "20",
    ]

    def test_smoke_run_writes_the_artifact(self, capsys, tmp_path):
        out = tmp_path / "BENCH_faults.json"
        assert main(self.RUN_ARGS + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "fault campaign" in printed
        assert "Resilient(UCB)" in printed
        payload = json.loads(out.read_text())
        assert "regret.crash.UCB" in payload["metrics"]
        assert "regret.crash.Resilient(UCB)" in payload["metrics"]
        assert payload["config"]["reps"] == 2

    def test_empty_out_skips_the_artifact(self, capsys, tmp_path):
        assert main(self.RUN_ARGS + ["--out", ""]) == 0
        assert not (tmp_path / "BENCH_faults.json").exists()

    def test_no_out_leaves_the_root_report_untouched(self, capsys, tmp_path):
        # The fixture runs in tmp_path: a committed root report there
        # must survive a campaign that did not ask for a report.
        root_report = tmp_path / "BENCH_faults.json"
        root_report.write_text('{"committed": true}\n')
        assert main(self.RUN_ARGS) == 0
        assert "report :" not in capsys.readouterr().out
        assert root_report.read_text() == '{"committed": true}\n'

    def test_unknown_schedule_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["faults", "run", "b", "--schedules", "crash", "meteor"])
        assert exc.value.code == 2
        assert "unknown schedule 'meteor'" in capsys.readouterr().err
        # Rejected while parsing: no sweep ran, so no bank was cached.
        assert not list((tmp_path / "banks").glob("**/*.json"))

    def test_unknown_strategy_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.RUN_ARGS[:-2] + ["--strategies", "Nope"])
        assert exc.value.code == 2
        assert "unknown strategy" in capsys.readouterr().err
