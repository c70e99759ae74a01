"""Span nesting, exception safety, and the disabled tracer's no-ops."""

import pytest

from repro.obs import (
    NULL_TRACER,
    MemorySink,
    TickClock,
    Tracer,
    get_tracer,
    scoped,
)


def tick_tracer():
    return Tracer(sink=MemorySink(), clock=TickClock())


class TestSpan:
    def test_records_start_end_duration(self):
        tr = tick_tracer()
        with tr.span("work", tiles=8):
            pass
        (rec,) = tr.sink.records
        assert rec["kind"] == "span"
        assert rec["name"] == "work"
        assert rec["t0"] == 0.0 and rec["t1"] == 1.0 and rec["dur"] == 1.0
        assert rec["ok"] is True
        assert rec["tiles"] == 8

    def test_nesting_records_parent(self):
        tr = tick_tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        inner, outer = tr.sink.records
        assert inner["name"] == "inner" and inner["parent"] == "outer"
        assert outer["name"] == "outer" and outer["parent"] is None

    def test_exception_marks_not_ok_and_propagates(self):
        tr = tick_tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tr.span("fragile"):
                raise RuntimeError("boom")
        (rec,) = tr.sink.records
        assert rec["ok"] is False
        # The span stack unwound: a following span has no parent.
        with tr.span("after"):
            pass
        assert tr.sink.records[-1]["parent"] is None

    def test_exception_in_nested_span_unwinds_stack(self):
        tr = tick_tracer()
        with pytest.raises(ValueError):
            with tr.span("outer"):
                with tr.span("inner"):
                    raise ValueError
        inner, outer = tr.sink.records
        assert inner["ok"] is False and inner["parent"] == "outer"
        assert outer["ok"] is False and outer["parent"] is None


class TestDisabledTracer:
    def test_span_is_reusable_noop(self):
        s1 = NULL_TRACER.span("a", big=1)
        s2 = NULL_TRACER.span("b")
        assert s1 is s2  # the shared no-op span: zero allocation
        with s1:
            pass

    def test_event_and_count_are_noops(self):
        NULL_TRACER.event("decision", arm=3)
        NULL_TRACER.count("cache.hit")
        assert NULL_TRACER.counters == {}

    def test_disabled_span_swallows_nothing(self):
        with pytest.raises(KeyError):
            with NULL_TRACER.span("x"):
                raise KeyError("still visible")


class TestScoped:
    def test_scoped_swaps_and_restores(self):
        before = get_tracer()
        tr = tick_tracer()
        with scoped(tr):
            assert get_tracer() is tr
        assert get_tracer() is before

    def test_scoped_restores_on_exception(self):
        before = get_tracer()
        with pytest.raises(RuntimeError):
            with scoped(tick_tracer()):
                raise RuntimeError
        assert get_tracer() is before
