"""Content-keyed memo cache for simulated phase durations.

The expensive operation behind every figure is the deterministic
discrete-event simulation of one iteration plan
(:meth:`repro.measure.batch.ScenarioBatch.measure`, which memoizes each
plan within one process): sweeping a scenario touches it once per
allowed node count, and the full Figure 5 driver runs 16 such sweeps.
Because the simulation is a pure function of its inputs, its results
can be memoized across processes under a *content key* -- a stable
fingerprint of everything that determines the makespan:

* the scenario (site, composition, workload, mode),
* the workload resolution (tile count -> matrix/tile geometry),
* the iteration plan (``n_fact``, ``n_gen``),
* the performance-model calibration (:meth:`PerfModel.fingerprint`),
* the sweep model version (:data:`repro.measure.MODEL_VERSION`).

Keys never depend on wall-clock, process identity or insertion order, so
a warm cache returns bit-identical durations to a cold run.  The cache
is an in-memory dict with a JSON spill, so a later process can start
warm.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Optional

from ..obs import get_tracer, write_atomic
from ..platform.scenarios import Scenario
from ..runtime import PerfModel

#: Bump when the on-disk spill layout changes.
SPILL_FORMAT_VERSION = 1


def simulation_fingerprint(
    scenario: Scenario,
    tiles: int,
    n_fact: int,
    n_gen: int,
    perfmodel: Optional[PerfModel] = None,
) -> str:
    """Stable content key of one deterministic simulation.

    The key is a SHA-256 over a canonical JSON rendering of every input
    the simulator's makespan depends on, so two processes (or two runs
    weeks apart) computing the same plan agree on the key, while any
    recalibration of the performance model or bump of the sweep
    ``MODEL_VERSION`` invalidates old entries.
    """
    from ..measure.sweep import MODEL_VERSION

    perfmodel = perfmodel if perfmodel is not None else PerfModel()
    payload = {
        "model_version": MODEL_VERSION,
        "perfmodel": perfmodel.fingerprint(),
        "scenario": {
            "site": scenario.site,
            "counts": list(list(c) for c in scenario.counts),
            "workload": scenario.workload,
            "mode": scenario.mode,
        },
        "tiles": int(tiles),
        "plan": {"n_fact": int(n_fact), "n_gen": int(n_gen)},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class DurationCache:
    """Memo of ``content key -> simulated duration``.

    Unbounded: all 16 scenarios with the rigid line make 1,344 entries.
    ``hits`` and ``misses`` count :meth:`get` outcomes.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, float] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[float]:
        """Cached duration, or None; counts a hit or a miss."""
        duration = self._entries.get(key)
        if duration is not None:
            self.hits += 1
            get_tracer().count("cache.hit")
        else:
            self.misses += 1
            get_tracer().count("cache.miss")
        return duration

    def put(self, key: str, duration: float) -> None:
        """Insert (or overwrite) an entry."""
        self._entries[key] = float(duration)

    def __len__(self) -> int:
        return len(self._entries)

    # -- disk spill --------------------------------------------------------------

    def spill(self, path: Path) -> Path:
        """Write all entries to the JSON file ``path``."""
        target = Path(path)
        from ..measure.sweep import MODEL_VERSION

        payload = {
            "format": SPILL_FORMAT_VERSION,
            "model_version": MODEL_VERSION,
            "entries": dict(self._entries),
        }
        target.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(target, json.dumps(payload, sort_keys=True))
        get_tracer().count("cache.spill", len(self._entries))
        return target

    def load(self, path: Path) -> int:
        """Merge entries from a spill file; returns how many were loaded.

        Silently ignores a missing file and discards spills written under
        a different format or sweep model version (their keys embed the
        old calibration, so they could never be requested again anyway).
        An unparseable (e.g. truncated) spill loads nothing, with one
        warning on stderr: only memo hits are lost, and the next
        :meth:`spill` rewrites the file.
        """
        source = Path(path)
        if not source.exists():
            return 0
        from ..measure.sweep import MODEL_VERSION

        try:
            payload = json.loads(source.read_text())
        except ValueError:
            print(f"warning: {source}: skipping the unparseable duration "
                  "cache spill (interrupted write?)", file=sys.stderr)
            return 0
        if payload.get("format") != SPILL_FORMAT_VERSION:
            return 0
        if payload.get("model_version") != MODEL_VERSION:
            return 0
        loaded = 0
        for key, value in payload.get("entries", {}).items():
            self.put(str(key), float(value))
            loaded += 1
        get_tracer().count("cache.load", loaded)
        return loaded
