"""Reference-vs-fast oracle: assert the engines agree bit for bit.

The fast path's contract is not "close": it is *the same simulation*.
The oracle therefore compares the entire observable surface with exact
equality -- never ``pytest.approx``:

* every ``SimulationResult`` field (makespan, task/transfer counts,
  communicated bytes and time, phase spans);
* the full ``TaskRecord`` / ``TransferRecord`` streams (``trace=True``);
* the observability trace **bytes**: each engine runs under its own
  fresh tick-clocked in-memory tracer and the emitted JSONL lines must
  match line for line.

``two_d_plans`` is the Figure 8 plan grid the table and batched-sweep
suites share.
"""

from repro.geostat import IterationPlan
from repro.measure.sweep import scenario_actions
from repro.obs import MemorySink, TickClock, Tracer, scoped
from repro.runtime import FastSimulator, PerfModel, Simulator

#: Scalar/structured SimulationResult fields compared with ``==``.
RESULT_FIELDS = (
    "makespan",
    "task_count",
    "transfer_count",
    "comm_bytes",
    "comm_time",
    "phase_spans",
)


def traced_run(sim, graph):
    """Run ``sim`` on ``graph`` under a fresh tick-clock memory tracer.

    Returns ``(result, jsonl_lines)``.  A private tracer per run keeps
    the two engines' byte streams independent and deterministic (tick
    clock, fresh metric registry).
    """
    tracer = Tracer(sink=MemorySink(), clock=TickClock())
    tracer.header()
    with scoped(tracer):
        result = sim.run(graph)
    tracer.close()
    return result, tracer.sink.lines()


def results_differ(ref, fast) -> bool:
    """True when any observable differs (the defect harness's detector)."""
    if any(getattr(ref, f) != getattr(fast, f) for f in RESULT_FIELDS):
        return True
    return (
        ref.task_records != fast.task_records
        or ref.transfer_records != fast.transfer_records
    )


def _assert_same_stream(label, ref, fast):
    """Exact record-stream equality with a first-divergence diagnostic."""
    if ref == fast:
        return
    for i, (a, b) in enumerate(zip(ref, fast)):
        if a != b:
            raise AssertionError(
                f"{label} diverge at index {i}:\n  ref  {a!r}\n  fast {b!r}"
            )
    raise AssertionError(
        f"{label} lengths diverge: ref={len(ref)} fast={len(fast)}"
    )


def assert_equivalent(graph, cluster, perfmodel=None):
    """Oracle: reference and fast engines agree bit for bit on ``graph``.

    Returns the reference result.
    """
    pm = perfmodel if perfmodel is not None else PerfModel()
    ref, ref_lines = traced_run(Simulator(cluster, pm, trace=True), graph)
    fast, fast_lines = traced_run(FastSimulator(cluster, pm, trace=True), graph)
    for name in RESULT_FIELDS:
        assert getattr(fast, name) == getattr(ref, name), (
            f"{name}: ref={getattr(ref, name)!r} fast={getattr(fast, name)!r}"
        )
    _assert_same_stream("task_records", ref.task_records, fast.task_records)
    _assert_same_stream(
        "transfer_records", ref.transfer_records, fast.transfer_records
    )
    assert fast_lines == ref_lines, "obs trace bytes diverge"
    return ref


def two_d_plans(scenario):
    """Figure 8 ``sweep_2d`` plans whose ``n_gen`` is neither ``n_fact``
    nor N, on a coarse grid of the allowed counts plus N."""
    allowed = scenario_actions(scenario)
    counts = sorted(set(allowed[:: max(1, len(allowed) // 3)]) | {allowed[-1]})
    return [
        IterationPlan(n_fact=n_fact, n_gen=n_gen)
        for n_gen in counts
        for n_fact in counts
        if n_gen not in (n_fact, allowed[-1])
    ]
