"""The summary's counter registry: ``Tracer.count``, the one metric.

Every trace ends with ``{"kind":"summary","registry":{"counters":{...}}}``;
counters are the only instrument that block carries.
"""

import pytest

from repro.obs import NULL_TRACER, MemorySink, TickClock, Tracer


def _tracer() -> Tracer:
    return Tracer(sink=MemorySink(), clock=TickClock())


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        tr = _tracer()
        assert tr.counters == {}
        tr.count("cache.hit")
        tr.count("cache.hit", 4)
        assert tr.counters == {"cache.hit": 5}

    def test_negative_delta_rejected(self):
        tr = _tracer()
        with pytest.raises(ValueError, match="only go up"):
            tr.count("x", -1)
        assert tr.counters == {}

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(sink=MemorySink(), clock=TickClock(), enabled=False)
        tr.count("x", 3)
        tr.close()
        assert tr.counters == {}
        assert tr.sink.records == []
        NULL_TRACER.count("x", -1)  # disabled: not even checked
        assert NULL_TRACER.counters == {}


class TestRegistry:
    def test_snapshot_is_sorted_and_plain(self):
        tr = _tracer()
        tr.count("zeta", 2)
        tr.count("alpha")
        tr.close()
        summary = tr.sink.records[-1]
        assert summary["kind"] == "summary"
        assert summary["registry"] == {"counters": {"alpha": 1, "zeta": 2}}
        assert list(summary["registry"]["counters"]) == ["alpha", "zeta"]


class TestCellCounters:
    def test_captured_cells_add_their_counters_to_the_summary(self):
        from repro import obs
        from repro.evaluate.parallel import EvalCell, run_cells
        from repro.faults import FaultInjector, FaultSchedule, NodeSlowdown
        from repro.measure.bank import synthetic_bank

        bank = synthetic_bank(lambda n: 30.0 / n, actions=range(1, 9),
                              seed=3, label="s")
        schedule = FaultSchedule(
            label="slow", faults=(NodeSlowdown(node=1, gflops_factor=0.5),))
        injector = FaultInjector(schedule, bank.actions, 5)
        cells = [EvalCell("s", "DC", rep) for rep in range(2)]
        tracer = obs.start_trace(ticks=True)
        try:
            run_cells({"s": bank}, cells, 5, injector=injector)
        finally:
            obs.finish_trace()
        # Node 1 is in every working set: all 2 x 5 iterations scale.
        assert tracer.counters == {"fault.scaled": 10}
        assert tracer.sink.records[-1]["registry"] == {
            "counters": {"fault.scaled": 10}}
