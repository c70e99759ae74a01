"""The tracer: spans, events, counters, and the active-tracer scope.

One module-global *active tracer* serves the whole process.  By default
it is a disabled tracer whose every operation is a guarded no-op, so
instrumentation in hot paths (the simulator inner loop, the strategy
propose/observe pair) costs one attribute check when tracing is off --
the "instrumentation is inert" contract, locked down by
``tests/obs/test_inert.py``: enabling a trace must not change a single
bit of any experiment output, because nothing in this module touches an
RNG stream or feeds a value back into the computation.

Deterministic mode: construct the tracer over a
:class:`~repro.obs.clock.TickClock` and the emitted JSONL is a pure
function of the instrumented code path -- two identical runs produce
byte-identical traces (see DESIGN.md, "Injected-clock determinism").
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from .clock import Clock, TickClock, WallClock
from .sink import (
    JsonlSink,
    MemorySink,
    NullSink,
    Sink,
    TRACE_SCHEMA_VERSION,
)


class Span:
    """Context manager timing one named section.

    Emits a single ``kind="span"`` record on exit carrying the start/end
    timestamps, the enclosing span's name (``parent``), ``ok=False`` when
    the body raised (the exception still propagates), and any attributes
    given at creation.
    """

    __slots__ = ("_tracer", "name", "attrs", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        self._t0 = self._tracer.clock.now()
        self._tracer._span_stack.append(self.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = self._tracer._span_stack
        # Pop our own frame even if instrumented code mismanaged nesting.
        if stack and stack[-1] == self.name:
            stack.pop()
        t1 = self._tracer.clock.now()
        record: Dict[str, object] = {
            "kind": "span",
            "name": self.name,
            "t0": self._t0,
            "t1": t1,
            "dur": t1 - self._t0,
            "parent": stack[-1] if stack else None,
            "ok": exc_type is None,
        }
        record.update(self.attrs)
        self._tracer.sink.emit(record)
        return False  # never swallow the exception


class _NullSpan:
    """Reusable no-op span for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Spans + events + counters over one clock and one sink."""

    def __init__(
        self,
        sink: Optional[Sink] = None,
        clock: Optional[Clock] = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.sink = sink if sink is not None else NullSink()
        self.clock = clock if clock is not None else WallClock()
        #: Named monotonic counts, emitted sorted in the summary record.
        self.counters: Dict[str, int] = {}
        self._span_stack: List[str] = []
        self._closed = False

    # -- emission ------------------------------------------------------------------

    def event(self, kind: str, **fields: object) -> None:
        """Emit one timestamped record of ``kind`` (no-op when disabled)."""
        if not self.enabled:
            return
        record: Dict[str, object] = {"kind": kind, "t": self.clock.now()}
        record.update(fields)
        self.sink.emit(record)

    def emit_raw(self, record: Dict[str, object]) -> None:
        """Forward an already-timestamped record (per-cell event merging)."""
        if self.enabled:
            self.sink.emit(record)

    def span(self, name: str, **attrs: object):
        """Timed section context manager (shared no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, attrs)

    def count(self, name: str, delta: int = 1) -> None:
        """Add ``delta`` (>= 0) to counter ``name`` (no-op when disabled)."""
        if self.enabled:
            if delta < 0:
                raise ValueError("counters only go up")
            self.counters[name] = self.counters.get(name, 0) + int(delta)

    # -- lifecycle ------------------------------------------------------------------

    def header(self) -> None:
        """Emit the ``trace.start`` record (schema version, clock kind)."""
        self.event(
            "trace.start",
            schema=TRACE_SCHEMA_VERSION,
            clock=self.clock.kind,
            wall_time=self.clock.wall_time(),
        )

    def close(self) -> None:
        """Emit the final counter summary and close the sink (idempotent).

        The sink is closed even when emitting the summary raises (say the
        disk filled mid-write): whatever was buffered before the failure
        still reaches the file instead of dying with the process.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self.enabled:
                self.event("summary", registry={
                    "counters": dict(sorted(self.counters.items()))})
        finally:
            self.sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False  # never swallow the exception


#: The process-wide disabled tracer; never closed, never replaced.
NULL_TRACER = Tracer(sink=NullSink(), enabled=False)

_ACTIVE: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The active tracer (the disabled singleton when tracing is off)."""
    return _ACTIVE


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as active; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextmanager
def scoped(tracer: Tracer) -> Iterator[Tracer]:
    """Temporarily swap the active tracer (per-cell capture)."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def start_trace(
    path: Optional[Union[str, Path]] = None, ticks: bool = False
) -> Tracer:
    """Open a trace and make it active.

    ``path=None`` buffers in memory (tests); ``ticks=True`` selects the
    injected deterministic clock.  Emits the header record immediately.
    """
    sink: Sink = JsonlSink(path) if path is not None else MemorySink()
    clock: Clock = TickClock() if ticks else WallClock()
    tracer = Tracer(sink=sink, clock=clock)
    tracer.header()
    set_tracer(tracer)
    return tracer


def finish_trace() -> None:
    """Close the active trace (summary + flush) and disable tracing."""
    tracer = set_tracer(NULL_TRACER)
    if tracer is not NULL_TRACER:
        tracer.close()
