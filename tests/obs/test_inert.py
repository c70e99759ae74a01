"""Instrumentation-is-inert proof and trace determinism.

Two contracts:

* **Inert**: enabling a trace changes no experiment output bit.  The
  tracer never touches an RNG stream and never feeds a value back, so
  ``evaluate_scenarios`` must return bit-identical evaluations with
  tracing on or off.
* **Deterministic**: under the injected tick clock the merged trace is a
  pure function of the work -- byte-identical across repeated runs
  (per-cell capture with fresh clocks, merged in cell order).
"""

import pytest

from repro import obs
from repro.evaluate import evaluate_scenarios, plan_cells, run_cells
from repro.measure import synthetic_bank

STRATEGIES = ("DC", "UCB", "GP-discontinuous")
ITERATIONS = 12
REPS = 2


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    yield
    obs.finish_trace()


@pytest.fixture()
def banks():
    out = {}
    for i, (key, slope) in enumerate([("s1", 0.7), ("s2", 1.1)]):
        out[key] = synthetic_bank(
            f=lambda n, s=slope: 10.0 + 30.0 / n + s * n,
            actions=range(2, 9),
            lp=lambda n: 30.0 / n + 1.0,
            group_boundaries=(2, 4, 8),
            noise_sd=0.4,
            seed=i,
            label=f"synthetic {key}",
        )
    return out


def flatten(evaluations):
    """Every float of an evaluation dict, exactly, for == comparison."""
    out = []
    for key in sorted(evaluations):
        ev = evaluations[key]
        out.append((key, ev.label, ev.all_nodes_mean, ev.oracle_mean,
                    ev.best_action))
        for s in ev.summaries:
            out.append((s.name, tuple(s.totals.tolist()), s.gain_pct))
    return out


class TestTracingIsInert:
    def test_outputs_bit_identical_with_tracing(self, banks):
        plain = flatten(evaluate_scenarios(
            banks, STRATEGIES, iterations=ITERATIONS, reps=REPS,
        ))
        obs.start_trace(ticks=True)
        try:
            traced = flatten(evaluate_scenarios(
                banks, STRATEGIES, iterations=ITERATIONS, reps=REPS,
            ))
        finally:
            obs.finish_trace()
        assert traced == plain

    def test_wall_clock_tracing_also_inert(self, banks):
        plain = flatten(evaluate_scenarios(
            banks, STRATEGIES, iterations=ITERATIONS, reps=REPS,
        ))
        obs.start_trace(ticks=False)
        try:
            traced = flatten(evaluate_scenarios(
                banks, STRATEGIES, iterations=ITERATIONS, reps=REPS,
            ))
        finally:
            obs.finish_trace()
        assert traced == plain


class TestTraceDeterminism:
    def _trace_lines(self, banks):
        cells = plan_cells(banks, STRATEGIES, REPS)
        tracer = obs.start_trace(ticks=True)
        try:
            run_cells(banks, cells, ITERATIONS)
            return tracer.sink.lines()
        finally:
            obs.finish_trace()

    def test_identical_runs_identical_lines(self, banks):
        first = self._trace_lines(banks)
        second = self._trace_lines(banks)
        assert first == second
        assert len(first) > len(plan_cells(banks, STRATEGIES, REPS))

    def test_cell_trace_independent_of_preceding_cells(self, banks):
        """Per-cell capture: a cell traces the same bytes run alone."""
        cells = plan_cells(banks, STRATEGIES, REPS)
        last = cells[-1]
        last_id = f"{last.scenario}/{last.strategy}/{last.rep}"

        def cell_lines(to_run):
            tracer = obs.start_trace(ticks=True)
            try:
                run_cells(banks, to_run, ITERATIONS)
                return [line for line, rec in zip(tracer.sink.lines(),
                                                  tracer.sink.records)
                        if rec.get("cell_id") == last_id]
            finally:
                obs.finish_trace()

        in_grid = cell_lines(cells)
        assert in_grid and in_grid == cell_lines([last])

    def test_jsonl_file_byte_identical_across_runs(self, banks, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            cells = plan_cells(banks, STRATEGIES, REPS)
            obs.start_trace(path, ticks=True)
            try:
                run_cells(banks, cells, ITERATIONS)
            finally:
                obs.finish_trace()
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestDecisionLog:
    def test_decisions_carry_gp_telemetry(self, banks):
        cells = plan_cells({"s1": banks["s1"]}, ("GP-discontinuous",), 1)
        tracer = obs.start_trace(ticks=True)
        try:
            run_cells({"s1": banks["s1"]}, cells, ITERATIONS)
            decisions = [r for r in tracer.sink.records
                         if r["kind"] == "decision"
                         and r["strategy"] == "GP-discontinuous"]
        finally:
            obs.finish_trace()
        assert len(decisions) == ITERATIONS
        for rec in decisions:
            assert {"arm", "duration", "iteration", "overhead_s",
                    "cell_id", "worker"} <= set(rec)
        # Once the GP is fitted, posterior telemetry appears.
        fitted = [r for r in decisions if "posterior_mean" in r]
        assert fitted, "no decision carried GP posterior telemetry"
        for rec in fitted:
            assert rec["posterior_sd"] >= 0.0
            assert rec["acquisition"] <= rec["posterior_mean"]

    def test_cache_counters_reach_summary(self, tmp_path):
        from repro.evaluate import DurationCache

        tracer = obs.start_trace(ticks=True)
        try:
            cache = DurationCache()
            cache.put("k1", 1.0)
            assert cache.get("k1") == 1.0
            assert cache.get("nope") is None
            counters = dict(tracer.counters)
        finally:
            obs.finish_trace()
        assert counters == {"cache.hit": 1, "cache.miss": 1}
