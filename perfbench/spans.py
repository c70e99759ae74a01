"""In-memory span recorder and the call wrappers that feed it.

The benchmark never edits the program to trace it: it wraps the public
functions and methods of each module from the outside, for the length
of one traced run, and restores them afterwards.  A span carries its
name, start, end, parent span and workload id; spans stay in memory and
are written out when the run ends.

A span's *layer* is the part of its name before the first dot
(``runtime.engine`` -> ``runtime``).  A layer's self time is the time
its spans cover minus the time their child spans cover, so the rows of
:func:`self_times` partition the root span exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class Recorder:
    """Spans of one traced run: flat lists indexed by span id."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(_clock())
        return sid

    def close(self, sid: int) -> float:
        end = _clock()
        self.ends[sid] = end
        self._stack.pop()
        return end - self.starts[sid]

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def __len__(self) -> int:
        return len(self.names)

    # -- wrapping ----------------------------------------------------------------

    def timed(self, fn: Callable, name: str,
              on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``on_result(args, result)`` after."""
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            sid = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`unpatch`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str,
              on_result: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a timed wrapper until :meth:`unpatch`."""
        self.replace(owner, attr,
                     self.timed(owner.__dict__[attr], name, on_result))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------------

    def durations(self) -> Dict[str, List[float]]:
        """Span durations by name, each list in start order."""
        out: Dict[str, List[float]] = defaultdict(list)
        for sid, name in enumerate(self.names):
            out[name].append(self.ends[sid] - self.starts[sid])
        return dict(out)

    def self_by_name(self) -> Dict[str, float]:
        """Self time per span name (duration minus child durations)."""
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        out: Dict[str, float] = defaultdict(float)
        for sid, name in enumerate(self.names):
            out[name] += self.ends[sid] - self.starts[sid] - child[sid]
        return dict(out)

    def self_times(self) -> Dict[str, float]:
        """Self time per layer (span-name prefix)."""
        out: Dict[str, float] = defaultdict(float)
        for name, value in self.self_by_name().items():
            out[name.split(".", 1)[0]] += value
        return dict(out)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines.

        The first line names the workload and the span-name table; each
        further line is ``[id, name index, parent id, start s, end s]``
        with times relative to the first span's start.
        """
        base = self.starts[0] if self.starts else 0.0
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": self.workload,
                                 "names": table}) + "\n")
            for sid, name in enumerate(self.names):
                fh.write(f"[{sid},{index[name]},{self.parents[sid]},"
                         f"{self.starts[sid] - base:.9f},"
                         f"{self.ends[sid] - base:.9f}]\n")
