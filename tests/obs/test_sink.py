"""JSONL sink: canonical encoding, schema golden, byte reproducibility."""

import json

import pytest

from repro.evaluate.cache import DurationCache
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    JsonlSink,
    MemorySink,
    TickClock,
    Tracer,
    encode_record,
    finish_trace,
    get_tracer,
    NULL_TRACER,
    read_trace,
    start_trace,
    write_atomic,
    write_root_report,
)
from repro.obs import sink as sink_module


class TestEncoding:
    def test_canonical_key_order_and_separators(self):
        a = encode_record({"b": 1, "a": 2})
        b = encode_record({"a": 2, "b": 1})
        assert a == b == '{"a":2,"b":1}'

    def test_roundtrips_through_json(self):
        rec = {"kind": "span", "t0": 0.0, "nested": {"x": [1, 2]}}
        assert json.loads(encode_record(rec)) == rec


class TestJsonlSink:
    def test_writes_one_line_per_record(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit({"kind": "a"})
        sink.emit({"kind": "b"})
        sink.close()
        assert read_trace(path) == [{"kind": "a"}, {"kind": "b"}]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.jsonl"
        JsonlSink(path).close()
        assert path.exists()

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"kind": "late"})


class TestSchemaGolden:
    """Pin the exact byte layout of the core record kinds.

    A change here is a trace schema change: bump TRACE_SCHEMA_VERSION
    and update downstream consumers (``repro stats``) deliberately.
    """

    def test_header_bytes(self):
        tr = Tracer(sink=MemorySink(), clock=TickClock())
        tr.header()
        assert tr.sink.lines() == [
            '{"clock":"ticks","kind":"trace.start","schema":1,'
            '"t":0.0,"wall_time":0.0}'
        ]
        assert TRACE_SCHEMA_VERSION == 1

    def test_span_bytes(self):
        tr = Tracer(sink=MemorySink(), clock=TickClock())
        with tr.span("fact", tiles=4):
            pass
        assert tr.sink.lines() == [
            '{"dur":1.0,"kind":"span","name":"fact","ok":true,'
            '"parent":null,"t0":0.0,"t1":1.0,"tiles":4}'
        ]

    def test_summary_bytes(self):
        tr = Tracer(sink=MemorySink(), clock=TickClock())
        tr.count("cache.hit", 2)
        tr.close()
        assert tr.sink.lines() == [
            '{"kind":"summary","registry":{"counters":{"cache.hit":2}},'
            '"t":0.0}'
        ]


class TestByteReproducibility:
    """Two identical runs under the tick clock emit identical bytes."""

    @staticmethod
    def _run(path):
        tracer = start_trace(path, ticks=True)
        try:
            with tracer.span("outer", n=3):
                tracer.event("decision", arm=5, duration=1.25)
                tracer.count("sim.runs", 3)
        finally:
            finish_trace()

    def test_identical_runs_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._run(p1)
        self._run(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes()  # non-trivial trace

    def test_wall_clock_trace_parses_but_differs(self, tmp_path):
        path = tmp_path / "w.jsonl"
        tracer = start_trace(path, ticks=False)
        try:
            with tracer.span("outer"):
                pass
        finally:
            finish_trace()
        records = read_trace(path)
        assert records[0]["clock"] == "wall"
        assert records[0]["wall_time"] > 0.0


class TestExceptionPaths:
    """A crashing run never truncates or loses buffered trace lines."""

    def test_sink_context_manager_closes_on_exception(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            with JsonlSink(path) as sink:
                for i in range(100):
                    sink.emit({"kind": "event", "i": i})
                raise RuntimeError("boom")
        # Everything emitted before the crash is on disk, parseable.
        records = read_trace(path)
        assert len(records) == 100
        assert records[-1] == {"kind": "event", "i": 99}

    def test_tracer_context_manager_emits_summary_on_exception(
            self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            with Tracer(sink=JsonlSink(path), clock=TickClock()) as tr:
                tr.header()
                tr.count("work.done", 7)
                raise RuntimeError("boom")
        records = read_trace(path)
        assert records[-1]["kind"] == "summary"
        assert records[-1]["registry"]["counters"]["work.done"] == 7

    def test_tracer_close_survives_failing_summary_emit(self, tmp_path):
        path = tmp_path / "t.jsonl"

        class ExplodingSink(JsonlSink):
            def emit(self, record):
                if record.get("kind") == "summary":
                    raise OSError("disk full")
                super().emit(record)

        sink = ExplodingSink(path)
        tracer = Tracer(sink=sink, clock=TickClock())
        tracer.header()
        tracer.event("decision", arm=1)
        with pytest.raises(OSError, match="disk full"):
            tracer.close()
        # The sink was still closed: pre-crash records reached the file.
        assert sink._fh is None
        records = read_trace(path)
        assert [r["kind"] for r in records] == ["trace.start", "decision"]

    def test_memory_sink_context_manager(self):
        with MemorySink() as sink:
            sink.emit({"kind": "a"})
        assert sink.records == [{"kind": "a"}]


class TestAtomicWrite:
    """An interrupted artifact write leaves the prior file intact."""

    def test_writes_exact_text(self, tmp_path):
        path = tmp_path / "a.json"
        write_atomic(path, '{"x": 1}\n')
        assert path.read_bytes() == b'{"x": 1}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]

    @pytest.mark.parametrize("writer", [
        lambda path: write_atomic(path, "new contents\n"),
        lambda path: write_root_report(path, "label", {}, {"m": 1.0},
                                       {"m": "count"}),
        lambda path: DurationCache().spill(path),
    ], ids=["helper", "root-report", "cache-spill"])
    def test_failed_replace_keeps_prior_file(self, tmp_path, monkeypatch,
                                             writer):
        path = tmp_path / "BENCH_x.json"
        path.write_bytes(b"prior bytes\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(sink_module.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            writer(path)
        assert path.read_bytes() == b"prior bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_x.json"]


class TestRootReport:
    """The one writer of the root ``BENCH_*.json`` reports."""

    UNITS = {"makespan_s": "sim_s", "phase_makespan_s": "sim_s",
             "task_count": "count"}

    def test_writes_canonical_payload(self, tmp_path):
        metrics = {"makespan_s": 10.0, "phase_makespan_s.solve": 5.0,
                   "task_count": 100.0}
        out = write_root_report(tmp_path / "sub" / "BENCH_timeline.json",
                                "b", {"tiles": 8}, metrics, self.UNITS,
                                ok=True)
        assert out.read_text() == json.dumps({
            "schema": sink_module.REPORT_SCHEMA_VERSION,
            "label": "b",
            "config": {"tiles": 8},
            "metrics": {
                "makespan_s": {"value": 10.0, "unit": "sim_s"},
                "phase_makespan_s.solve": {"value": 5.0, "unit": "sim_s"},
                "task_count": {"value": 100.0, "unit": "count"},
            },
            "ok": True,
        }, indent=2, sort_keys=True) + "\n"
        assert sink_module.REPORT_SCHEMA_VERSION == 2

    @pytest.mark.parametrize("metrics, units, message", [
        ({"m": 1.0}, {"m": "seconds"}, "unknown unit 'seconds'"),
        ({"wall_s": 1.0}, {"makespan_s": "sim_s"}, "has no unit"),
        ({"makespan_s_p99": 1.0}, {"makespan_s": "sim_s"}, "has no unit"),
    ], ids=["unknown-unit", "no-unit", "no-prefix-match"])
    def test_metric_without_known_unit_raises(self, tmp_path, metrics,
                                              units, message):
        path = tmp_path / "BENCH_x.json"
        with pytest.raises(ValueError, match=message):
            write_root_report(path, "label", {}, metrics, units)
        assert not path.exists()
