"""Characterization of the `repro serve` CLI."""

import json

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def small(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TILES_101", "10")
    monkeypatch.setenv("REPRO_TILES_128", "10")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "banks"))
    monkeypatch.chdir(tmp_path)


class TestServeBench:
    ARGS = ["serve", "bench", "--tenants", "12", "--shards", "2",
            "--fuzz", "0", "--quiet"]

    def test_smoke_writes_the_artifact(self, capsys, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "serve bench: 12 tenant(s)" in printed
        assert "OK" in printed
        blob = json.loads(out.read_text())
        assert blob["label"] == "serve-bench"
        assert blob["metrics"]["serve.tenants"] == {"value": 12.0,
                                                    "unit": "count"}
        assert blob["ok"] is True

    def test_request_errors_fail_the_bench(self, capsys, monkeypatch,
                                           tmp_path):
        from repro.serve import loadgen, protocol

        on_proposal = loadgen._Client.on_proposal

        def with_a_stranger(self, n):
            # An observe from a tenant that never said hello: the service
            # refuses it, and the refusal must reach serve.errors.
            return [*on_proposal(self, n),
                    protocol.observe("stranger", n, 1.0)]

        monkeypatch.setattr(loadgen._Client, "on_proposal", with_a_stranger)
        out = tmp_path / "BENCH_serve.json"
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--out", str(out)])
        assert exc.value.code == 1
        assert "FAILED" in capsys.readouterr().out
        blob = json.loads(out.read_text())
        assert blob["ok"] is False
        assert blob["metrics"]["serve.errors"]["value"] > 0

    def test_empty_out_disables_the_artifact(self, capsys, tmp_path):
        assert main(self.ARGS + ["--out", ""]) == 0
        assert not (tmp_path / "BENCH_serve.json").exists()

    def test_no_out_leaves_the_root_report_untouched(self, capsys, tmp_path):
        # The fixture runs in tmp_path: a committed root report there
        # must survive a bench that did not ask for a report.
        root_report = tmp_path / "BENCH_serve.json"
        root_report.write_text('{"committed": true}\n')
        assert main(self.ARGS) == 0
        assert "report :" not in capsys.readouterr().out
        assert root_report.read_text() == '{"committed": true}\n'

    def test_bad_tenants_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "bench", "--tenants", "0"])
        assert exc.value.code == 2
        assert "--tenants" in capsys.readouterr().err

    def test_bad_shards_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "bench", "--shards", "0"])
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_bad_bound_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "bench", "--p99-bound", "0"])
        assert exc.value.code == 2
        assert "--p99-bound" in capsys.readouterr().err
