"""Trace clocks: the monotonic wall clock and the injected tick clock.

Every timestamp in a trace comes from exactly one :class:`Clock` owned by
the active tracer.  Two implementations exist:

* :class:`WallClock` -- real time.  ``now()`` is the *monotonic*
  ``time.perf_counter`` (span durations are wall-clock-shift free); the
  single ``wall_time()`` epoch read stamps the trace header so humans can
  situate a trace file in calendar time.
* :class:`TickClock` -- the deterministic-mode clock.  ``now()`` returns
  an injected counter (0, 1, 2, ...) so two identical runs produce
  byte-identical JSONL traces; ``wall_time()`` is pinned to ``0.0``.

This module is the repository's **single audited wall-clock source**: the
``time.time()`` call below carries the one inline DET001 exemption in
``src/`` (``# repro-lint: disable=DET001``, see
``repro.analysis.determinism``) because its output is trace metadata
only -- it never feeds an experiment input, a seed, or a measured
quantity.  Production code anywhere else must not read the calendar
clock.
"""

from __future__ import annotations

import time


class Clock:
    """Timestamp source of a tracer."""

    #: Human-readable clock kind, embedded in the trace header.
    kind: str = "abstract"

    def now(self) -> float:
        """Monotonic timestamp in clock units (seconds or ticks)."""
        raise NotImplementedError

    def wall_time(self) -> float:
        """Epoch timestamp for the trace header (0.0 when deterministic)."""
        raise NotImplementedError


class WallClock(Clock):
    """Real time: monotonic ``now()``, one epoch read for the header."""

    kind = "wall"

    def now(self) -> float:
        return time.perf_counter()

    def wall_time(self) -> float:
        # The single audited calendar read: header metadata only, never
        # an experiment input.
        return time.time()  # repro-lint: disable=DET001


class TickClock(Clock):
    """Injected deterministic clock: each read returns the next tick.

    Durations measured against it count *clock reads*, not seconds --
    meaningless physically but bit-reproducible, which is the point: under
    a fixed clock an identical run emits an identical byte stream (the
    determinism contract in DESIGN.md).
    """

    kind = "ticks"

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError("start tick must be non-negative")
        self._tick = int(start)

    def now(self) -> float:
        tick = self._tick
        self._tick += 1
        return float(tick)

    def wall_time(self) -> float:
        return 0.0
