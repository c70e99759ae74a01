"""Characterization of the `repro fuzz` CLI."""

import json

import pytest

from repro.cli import main

#: Small-but-real run arguments: two scenarios, three strategies.
RUN_ARGS = [
    "fuzz", "run", "--count", "2", "--seed", "7",
    "--strategies", "DC", "UCB", "Resilient(UCB)",
    "--iterations", "20",
]


class TestFuzzRunErrors:
    def test_unknown_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "run", "--families", "quantum"])
        assert exc.value.code == 2
        assert "unknown family" in capsys.readouterr().err

    def test_bad_seed_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "run", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_malformed_bound_exits_2(self, capsys):
        # Non-numeric is argparse's job ...
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "run", "--bound", "tight"])
        assert exc.value.code == 2
        # ... non-positive is ours.
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "run", "--bound", "-0.5"])
        assert exc.value.code == 2
        assert "--bound" in capsys.readouterr().err

    def test_unknown_strategy_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "run", "--strategies", "Psychic"])
        assert exc.value.code == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_too_few_iterations_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "run", "--iterations", "5"])
        assert exc.value.code == 2
        assert "--iterations" in capsys.readouterr().err


class TestFuzzRun:
    def test_green_run_writes_the_canonical_report(self, capsys, tmp_path):
        out = tmp_path / "BENCH_fuzz.json"
        assert main(RUN_ARGS + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "all properties held" in printed
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert len(payload["scenarios"]) == 2
        assert set(payload["strategies"]) == {"DC", "UCB", "Resilient(UCB)"}

    def test_report_bytes_are_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(RUN_ARGS + ["--out", str(a)]) == 0
        assert main(RUN_ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_failing_run_shrinks_promotes_and_exits_1(self, capsys,
                                                      tmp_path):
        art = tmp_path / "artifacts"
        with pytest.raises(SystemExit) as exc:
            main([
                "fuzz", "run", "--count", "1", "--seed", "7",
                "--strategies", "UCB", "--iterations", "20",
                "--bound", "0.0001",
                "--out", "", "--artifact-dir", str(art),
            ])
        assert exc.value.code == 1
        printed = capsys.readouterr().out
        assert "FAILED" in printed
        assert "shrunk" in printed
        artifacts = list(art.glob("*.json"))
        assert artifacts, "a shrunk scenario artifact must be written"
        payload = json.loads(artifacts[0].read_text())
        assert payload["failure"]["strategy"] == "UCB"
        assert payload["shrink_steps"]


class TestFuzzReplay:
    def test_missing_corpus_entry_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "replay", "fz_missing.json",
                  "--dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "no such corpus entry" in capsys.readouterr().err

    def test_empty_golden_dir_is_a_noop(self, capsys, tmp_path):
        assert main(["fuzz", "replay", "--dir", str(tmp_path)]) == 0
        assert "no promoted scenarios" in capsys.readouterr().out

    def test_committed_goldens_replay_green(self, capsys):
        # Default --dir: the committed regression corpus.
        assert main(["fuzz", "replay"]) == 0
        out = capsys.readouterr().out
        assert "0 reproduced" in out


class TestFuzzPromote:
    def test_unknown_check_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "promote", "0", "--strategy", "UCB",
                  "--check", "vibes"])
        assert exc.value.code == 2

    def test_holding_property_exits_1(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "promote", "1", "--seed", "7",
                  "--strategy", "DC", "--check", "regret-bound",
                  "--iterations", "20", "--dir", str(tmp_path)])
        assert exc.value.code == 1
        assert "nothing to promote" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.json"))

    def test_forced_failure_promotes_a_golden(self, capsys, tmp_path):
        assert main([
            "fuzz", "promote", "0", "--seed", "7", "--strategy", "UCB",
            "--check", "regret-bound", "--bound", "0.0001",
            "--iterations", "20", "--dir", str(tmp_path),
        ]) == 0
        assert "promoted" in capsys.readouterr().out
        goldens = list(tmp_path.glob("*.json"))
        assert len(goldens) == 1
        payload = json.loads(goldens[0].read_text())
        assert payload["expect"] == "pass"
