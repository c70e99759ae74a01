"""`repro perf record` / `repro perf check`: ledger CLI and exit codes.

Pins the gate contract: exit 0 against a freshly recorded baseline,
exit 1 on a synthetically injected makespan regression, a non-blocking
warn when no baseline matches, exit 2 on a corrupt ledger line, and the
root-level ``BENCH_timeline.json`` trajectory artifact.
"""

import json

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def small(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TILES_101", "8")
    monkeypatch.setenv("REPRO_TILES_128", "8")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "banks"))
    monkeypatch.chdir(tmp_path)


@pytest.fixture()
def ledger(tmp_path):
    return tmp_path / "ledger.jsonl"


def record(ledger, extra=()):
    return main(["perf", "record", "b", "--ledger", str(ledger), *extra])


def check(ledger, extra=()):
    return main(["perf", "check", "b", "--ledger", str(ledger), *extra])


def tamper(ledger, factor):
    """Scale the baseline makespan so the current run looks regressed."""
    entry = json.loads(ledger.read_text().splitlines()[0])
    entry["metrics"]["makespan_s"] *= factor
    ledger.write_text(json.dumps(entry) + "\n")


class TestRecord:
    def test_appends_entry_and_root_report(self, tmp_path, ledger, capsys):
        assert record(ledger) == 0
        (line,) = ledger.read_text().splitlines()
        entry = json.loads(line)
        assert entry["schema"] == 1
        assert entry["label"] == "b"
        assert entry["metrics"]["makespan_s"] > 0.0
        assert entry["config"]["tiles"] == 8
        root = json.loads((tmp_path / "BENCH_timeline.json").read_text())
        assert root["metrics"] == entry["metrics"]
        assert "recorded_at" in root

    def test_append_only(self, ledger, capsys):
        assert record(ledger) == 0
        assert record(ledger) == 0
        assert len(ledger.read_text().splitlines()) == 2

    def test_root_out_disabled(self, tmp_path, ledger, capsys):
        assert record(ledger, ["--root-out", ""]) == 0
        assert not (tmp_path / "BENCH_timeline.json").exists()

class TestCheck:
    def test_passes_against_fresh_baseline(self, ledger, capsys):
        assert record(ledger) == 0
        assert check(ledger) == 0
        assert "perf check: PASS" in capsys.readouterr().out

    def test_fails_on_injected_makespan_regression(self, ledger, capsys):
        assert record(ledger) == 0
        tamper(ledger, 1 / 1.25)  # current makespan now +25 % vs baseline
        with pytest.raises(SystemExit) as exc:
            check(ledger)
        assert exc.value.code == 1
        out = capsys.readouterr().out
        assert "perf check: FAIL" in out
        assert "makespan_s" in out

    def test_higher_threshold_tolerates_it(self, ledger, capsys):
        assert record(ledger) == 0
        tamper(ledger, 1 / 1.25)
        assert check(ledger, ["--threshold", "0.5"]) == 0

    def test_missing_baseline_warns_non_blocking(self, ledger, capsys):
        assert check(ledger) == 0
        assert "no matching ledger baseline" in capsys.readouterr().out

    def test_require_baseline_makes_it_blocking(self, ledger, capsys):
        with pytest.raises(SystemExit) as exc:
            check(ledger, ["--require-baseline"])
        assert exc.value.code == 1

    def test_mismatched_config_finds_no_baseline(self, ledger, capsys,
                                                 monkeypatch):
        assert record(ledger) == 0
        monkeypatch.setenv("REPRO_TILES_101", "10")  # different fingerprint
        assert check(ledger) == 0
        assert "no matching ledger baseline" in capsys.readouterr().out

    def test_json_format(self, ledger, capsys):
        assert record(ledger) == 0
        capsys.readouterr()
        assert check(ledger, ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["baseline_found"] is True
        gated = [c for c in payload["checks"] if c["gated"]]
        assert gated
        assert all(c["rel_change"] == 0.0 for c in gated)

    def test_negative_threshold_exits_2(self, ledger, capsys):
        with pytest.raises(SystemExit) as exc:
            check(ledger, ["--threshold", "-0.5"])
        assert exc.value.code == 2
        assert "--threshold" in capsys.readouterr().err


class TestLedgerAndFlags:
    @pytest.mark.parametrize("command", ["record", "check"])
    @pytest.mark.parametrize("flag", ["--bench", "--simfast-bench",
                                      "--forensics-bench", "--serve-bench"])
    def test_removed_merge_flags_exit_2(self, ledger, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main(["perf", command, "b", "--ledger", str(ledger),
                  flag, "BENCH.json"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", [record, check])
    def test_corrupt_ledger_line_exits_2(self, ledger, capsys, command):
        assert record(ledger) == 0
        good = ledger.read_text()
        ledger.write_text(good + "{not json\n" + good)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            command(ledger)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {ledger}:2: unparseable ledger line"]

    def test_torn_final_line_still_gates(self, ledger, capsys):
        assert record(ledger) == 0
        with ledger.open("a") as fh:
            fh.write('{"label": "b", "met')  # interrupted append
        assert check(ledger) == 0
        captured = capsys.readouterr()
        assert "perf check: PASS" in captured.out
        assert "skipping the unparseable final line" in captured.err
        assert record(ledger) == 0
        assert len(ledger.read_text().splitlines()) == 2
