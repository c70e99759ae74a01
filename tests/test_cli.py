"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def small(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TILES_101", "10")
    monkeypatch.setenv("REPRO_TILES_128", "10")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


#: Bad input, and what stderr must name: the flag or the unknown name.
BAD_ARGUMENTS = [
    (["sweep", "zz"], "unknown scenario"),
    (["compare", "zz"], "unknown scenario"),
    (["replay", "zz", "UCB"], "unknown scenario"),
    (["timeline", "zz"], "unknown scenario"),
    (["checks", "zz"], "unknown scenario"),
    (["grid", "zz"], "unknown scenario"),
    (["trace", "zz"], "unknown scenario"),
    (["faults", "run", "zz"], "unknown scenario"),
    (["replay", "b", "Nope"], "unknown strategy"),
    (["faults", "run", "b", "--strategies", "UCB", "Nope"],
     "unknown strategy"),
    (["faults", "run", "b", "--schedules", "meteor"], "unknown schedule"),
    (["faults", "describe", "meteor"], "unknown schedule"),
    (["compare", "b", "--reps", "0"], "--reps"),
    (["fig6", "--reps", "0"], "--reps"),
    (["overhead", "--reps", "0"], "--reps"),
    (["overhead", "--iterations", "0"], "--iterations"),
    (["faults", "run", "b", "--reps", "0"], "--reps"),
    (["faults", "run", "b", "--iterations", "8"], "--iterations"),
    (["faults", "list", "--nodes", "1"], "--nodes"),
    (["grid", "f", "--step", "0"], "--step"),
    (["timeline", "b", "--nbins", "0"], "--nbins"),
    (["timeline", "b", "--n-fact", "-1"], "--n-fact"),
    (["checks", "b", "--n-fact", "-2"], "--n-fact"),
    (["checks", "b", "--n-fact", "999"], "--n-fact: must be <= 14"),
    (["serve", "bench", "--arrival-window", "0"], "--arrival-window"),
    (["serve", "bench", "--seed", "-1"], "--seed"),
    (["fuzz", "promote", "-1", "--strategy", "UCB", "--check", "replay"],
     "index"),
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for argv in (
            ["table2"], ["scenarios"], ["sweep", "b"], ["compare", "b"],
            ["fig6"], ["replay", "b", "GP-UCB"], ["overhead"],
            ["grid"], ["trace"], ["checks"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.fn)

    @pytest.mark.parametrize("argv, removed", [
        (["bench"], "bench"),
        (["bench", "--simfast"], "bench"),
        (["serve", "run"], "run"),
        (["perf", "check", "b"], "perf"),
        (["perf", "record", "b"], "perf"),
        (["predict", "--range", "0"], "predict"),
        (["lint", "--strict"], "lint"),
    ], ids=["bench", "bench-simfast", "serve-run", "perf-check",
            "perf-record", "predict", "lint"])
    def test_removed_command_exits_2(self, argv, removed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"invalid choice: '{removed}'" in capsys.readouterr().err


class TestBadArguments:
    """Bad input exits 2 while argparse parses, before any sweep runs."""

    @pytest.fixture(autouse=True)
    def no_sweep(self, monkeypatch):
        import repro.measure

        def forbidden(*args, **kwargs):
            raise AssertionError("a sweep ran before the argument check")

        monkeypatch.setattr(repro.measure, "cached_bank", forbidden)

    @pytest.mark.parametrize("argv, expected", BAD_ARGUMENTS,
                             ids=["_".join(argv) for argv, _ in BAD_ARGUMENTS])
    def test_exits_2_before_any_sweep(self, argv, expected, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert expected in capsys.readouterr().err


class TestCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "chifflot" in out and "b715" in out

    def test_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "G5K 2L-6M-6S 101" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "b"]) == 0
        out = capsys.readouterr().out
        assert "n_fact" in out and "LP" in out

    def test_replay(self, capsys):
        assert main(["replay", "b", "GP-UCB", "--iterations", "5", "8"]) == 0
        out = capsys.readouterr().out
        assert "iteration   5" in out

    def test_compare(self, capsys):
        assert main(["compare", "b", "--reps", "2"]) == 0
        out = capsys.readouterr().out
        assert "GP-discontinuous" in out

    def test_trace(self, capsys):
        assert main(["trace", "b"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out

    def test_overhead(self, capsys):
        assert main(["overhead", "--reps", "2", "--iterations", "8"]) == 0
        out = capsys.readouterr().out
        assert "steady state" in out

    def test_grid(self, capsys):
        assert main(["grid", "b", "--step", "6"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out

    def test_checks(self, capsys):
        assert main(["checks", "b"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
