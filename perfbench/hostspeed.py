"""Host-speed calibration: end-to-end times at a fixed reference speed.

On a shared machine the same work can take 1.5x longer from one minute
to the next: the host moves between speed regimes that no statistic of
the workload's own samples can separate from a real slowdown.  The
benchmark therefore runs a short calibration loop -- plain Python
integer and dict work that executes none of the program's code -- about
once a second while a workload runs, and scales every end-to-end time
by ``REFERENCE_S`` over the calibrations around it.  A slower program
still reads slower; a slower host does not.  The loop's minimum over a few repetitions is
used, so a momentary stall does not count as a slow host.

The raw (unscaled) values are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

_clock = time.perf_counter

#: Calibration loop time on an unloaded 2-core x86 container host; the
#: scaled metrics read as if every run had met this speed.
REFERENCE_S = 0.0125

#: Seconds of work between two calibrations while a workload runs.
INTERVAL_S = 1.0

#: Loop repetitions per calibration; the fastest one counts.
REPEATS = 7


def _loop() -> float:
    start = _clock()
    table = {}
    total = 0
    for i in range(150_000):
        table[i & 511] = total
        total += i
    return _clock() - start


def probe() -> float:
    """Seconds the calibration loop takes on this host right now."""
    return min(_loop() for _ in range(REPEATS))


class Calibration:
    """Calibrations taken during one run, with when they ran.

    A time measured between two calibrations is scaled by their mean;
    the calibrations' own time is no part of any scaled interval.
    """

    def __init__(self) -> None:
        #: (start, end, loop seconds) of each calibration, in time order.
        self.marks: List[Tuple[float, float, float]] = []
        self.spent = 0.0

    def take(self) -> None:
        start = _clock()
        value = probe()
        end = _clock()
        self.marks.append((start, end, value))
        self.spent += end - start

    def tick(self) -> None:
        """Calibrate if a calibration interval has passed."""
        if not self.marks or _clock() >= self.marks[-1][1] + INTERVAL_S:
            self.take()

    def scale(self, durations: List[float], ends: List[float]) -> List[float]:
        """Durations that ended at ``ends``, each scaled by the mean of
        the calibrations just before and just after it."""
        mark_ends = [end for _, end, _ in self.marks]
        out = []
        for duration, t in zip(durations, ends):
            i = bisect.bisect_right(mark_ends, t)
            around = [m[2] for m in self.marks[max(i - 1, 0):i + 1]]
            out.append(duration * REFERENCE_S / statistics.fmean(around))
        return out

    def scaled(self, start: float, end: float) -> float:
        """Scaled length of [start, end], calibrations left out."""
        total = 0.0
        for (_, gap_start, a), (gap_end, _, b) in zip(self.marks,
                                                      self.marks[1:]):
            lo, hi = max(start, gap_start), min(end, gap_end)
            if hi > lo:
                total += (hi - lo) * REFERENCE_S / ((a + b) / 2)
        return total
