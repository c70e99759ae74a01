"""repro.obs: zero-dependency observability (spans, metrics, decision log).

The paper's two measured claims -- per-iteration strategy overhead of
0.04-0.06 s (Figure 7) and up to ~51 % gains over always-all-nodes
(Figure 6) -- regress silently without runtime telemetry.  This package
instruments the hot paths with:

* monotonic-clock **spans** (``tracer.span("cell", strategy=...)``),
* named monotonic **counters** (``tracer.count("cache.hit")``), emitted
  once in the trace's closing summary record,
* a per-iteration strategy **decision log** (arm chosen, posterior
  mean/sd at the chosen arm, acquisition value, wall-clock overhead),
* a **JSONL event sink** whose clock can be swapped for an injected tick
  counter, making traces byte-reproducible (and keeping the DET001
  determinism audit clean: the only calendar read lives in
  :mod:`repro.obs.clock`).

Tracing is **inert**: with the default disabled tracer every call is a
guarded no-op, and enabling a trace never perturbs an RNG stream, so
experiment outputs are bit-identical with tracing on or off
(``tests/obs/test_inert.py`` enforces this).
"""

from .clock import Clock, TickClock, WallClock
from .sink import (
    JsonlSink,
    MemorySink,
    NullSink,
    Sink,
    TRACE_SCHEMA_VERSION,
    TraceError,
    encode_record,
    read_trace,
    write_atomic,
    write_root_report,
)
from .stats import (
    STATS_SCHEMA_VERSION,
    TraceStats,
    aggregate,
    load_trace,
    render_stats,
    stats_to_json,
)
from .trace import (
    NULL_TRACER,
    Span,
    Tracer,
    finish_trace,
    get_tracer,
    scoped,
    set_tracer,
    start_trace,
)

# NOTE: repro.obs.timeline is intentionally NOT imported here: it
# depends on repro.runtime / repro.platform, which themselves import
# repro.obs at module load -- import it directly
# (`from repro.obs import timeline`) to keep the package cycle-free.

__all__ = [
    "Clock",
    "STATS_SCHEMA_VERSION",
    "JsonlSink",
    "MemorySink",
    "NULL_TRACER",
    "NullSink",
    "Sink",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "TickClock",
    "TraceError",
    "TraceStats",
    "Tracer",
    "WallClock",
    "aggregate",
    "encode_record",
    "finish_trace",
    "get_tracer",
    "load_trace",
    "read_trace",
    "render_stats",
    "scoped",
    "set_tracer",
    "start_trace",
    "stats_to_json",
    "write_atomic",
    "write_root_report",
]
