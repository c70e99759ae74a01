"""Event sinks: where trace records go.

A record is a flat-ish dict of JSON-serializable values.  Encoding is
canonical -- ``sort_keys`` plus compact separators -- so a record's byte
rendering depends only on its content, never on insertion order; this is
half of the byte-reproducibility contract (the other half is the
injected :class:`~repro.obs.clock.TickClock`).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Bump when the JSONL record layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1


def encode_record(record: Dict[str, object]) -> str:
    """Canonical one-line JSON rendering of a trace record."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_atomic(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` so a reader sees the old file or the new
    one, never a torn mix.

    The text goes to a sibling temp file first, which ``os.replace``
    then renames over ``path``.  If anything fails, the temp file is
    removed and a prior file at ``path`` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


#: Layout version of the root ``BENCH_*.json`` reports.
REPORT_SCHEMA_VERSION = 2

#: The closed set of units a report metric may carry.
REPORT_UNITS = frozenset({"sim_s", "ticks", "bytes", "count", "ratio",
                          "1/tick"})


def metric_unit(name: str, units: Dict[str, str]) -> str:
    """Unit of metric ``name``: ``units[name]``, else the entry of its
    longest dotted prefix (``overlap_s`` for ``overlap_s.a+b``).

    Raises ``ValueError`` when no entry matches or the unit is not in
    :data:`REPORT_UNITS`.
    """
    key = name
    while key not in units:
        if "." not in key:
            raise ValueError(f"metric {name!r} has no unit")
        key = key.rsplit(".", 1)[0]
    unit = units[key]
    if unit not in REPORT_UNITS:
        raise ValueError(f"metric {name!r} has unknown unit {unit!r}; "
                         f"known: {sorted(REPORT_UNITS)}")
    return unit


def write_root_report(
    path: Union[str, Path],
    label: str,
    config: Dict[str, object],
    metrics: Dict[str, float],
    units: Dict[str, str],
    **extra: object,
) -> Path:
    """Atomically write one root ``BENCH_*.json`` report.

    Every metric is written as ``{"value", "unit"}`` with its unit from
    :func:`metric_unit`, so a metric without a known unit raises before
    anything is written.  ``extra`` holds the writer's own top-level
    tables.  The rendering is indented canonical JSON: a deterministic
    run rewrites the committed file byte for byte.
    """
    payload = {
        "schema": REPORT_SCHEMA_VERSION,
        "label": label,
        "config": dict(config),
        "metrics": {name: {"value": value, "unit": metric_unit(name, units)}
                    for name, value in metrics.items()},
        **extra,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return write_atomic(path, json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")


class Sink:
    """Destination for trace records.

    Every sink is a context manager: ``with JsonlSink(path) as sink:``
    guarantees :meth:`close` runs on the exception path too, so a
    crashing campaign can never truncate the last buffered trace line.
    """

    def emit(self, record: Dict[str, object]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False  # never swallow the exception


class NullSink(Sink):
    """Swallows everything (the disabled tracer's sink)."""

    def emit(self, record: Dict[str, object]) -> None:
        pass


class MemorySink(Sink):
    """Buffers records in order; used by per-cell capture and tests.

    ``records`` holds the original dicts (cheap to merge into a parent
    sink); ``lines()`` renders them canonically.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []

    def emit(self, record: Dict[str, object]) -> None:
        self.records.append(record)

    def lines(self) -> List[str]:
        """Canonical JSONL rendering of the buffered records."""
        return [encode_record(r) for r in self.records]


class JsonlSink(Sink):
    """Appends canonical JSON lines to a file, creating parents."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[object] = self.path.open(
            "w", encoding="utf-8", newline="\n"
        )

    def emit(self, record: Dict[str, object]) -> None:
        if self._fh is None:
            raise ValueError(f"sink for {self.path} is closed")
        self._fh.write(encode_record(record) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class TraceError(ValueError):
    """A trace line other than the final one does not parse."""


def read_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a JSONL trace file back into records (blank lines skipped).

    An unparseable *final* line is what an interrupted run leaves
    behind: it is skipped with a warning on stderr and the rest is
    returned.  An unparseable line anywhere else is corruption and
    raises :class:`TraceError`.
    """
    lines = Path(path).read_bytes().splitlines()
    last = max((i for i, line in enumerate(lines) if line.strip()),
               default=-1)
    records: List[Dict[str, object]] = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if not isinstance(record, dict):
            if i < last:
                raise TraceError(f"{path}:{i + 1}: unparseable trace line")
            print(f"warning: {path}:{i + 1}: skipping the unparseable "
                  "final line (interrupted run?)", file=sys.stderr)
            break
        records.append(record)
    return records
