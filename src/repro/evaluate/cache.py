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
is a bounded in-memory LRU with an optional JSON spill, so a later
process can start warm.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional

from ..obs import get_tracer, write_atomic
from ..platform.scenarios import Scenario
from ..runtime import PerfModel

#: Bump when the on-disk spill layout changes.
SPILL_FORMAT_VERSION = 1


def _obs_count(name: str, delta: int = 1) -> None:
    """Increment an obs counter when tracing is on (inert otherwise)."""
    tracer = get_tracer()
    if tracer.enabled:
        tracer.registry.counter(name).inc(delta)


def simulation_fingerprint(
    scenario: Scenario,
    tiles: int,
    n_fact: int,
    n_gen: int,
    perfmodel: Optional[PerfModel] = None,
    faults: Optional[str] = None,
) -> str:
    """Stable content key of one deterministic simulation.

    The key is a SHA-256 over a canonical JSON rendering of every input
    the simulator's makespan depends on, so two processes (or two runs
    weeks apart) computing the same plan agree on the key, while any
    recalibration of the performance model or bump of the sweep
    ``MODEL_VERSION`` invalidates old entries.

    ``faults`` is the content fingerprint of an active fault schedule
    (:meth:`repro.faults.models.FaultSchedule.fingerprint`): a faulted
    simulation produces different durations for the *same* plan, so the
    schedule must be part of the key or a warm cache would serve stale
    stationary results.  ``None`` (no injection) leaves keys byte-identical
    to the pre-fault layout, keeping existing spills valid.
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
    if faults is not None:
        payload["faults"] = str(faults)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class DurationCache:
    """Bounded LRU memo of ``content key -> simulated duration``.

    Parameters
    ----------
    maxsize:
        Maximum number of in-memory entries; least-recently-used entries
        are evicted beyond it.
    spill_path:
        Optional JSON file for persisting entries across processes (see
        :meth:`spill` / :meth:`load`).
    """

    def __init__(
        self, maxsize: int = 4096, spill_path: Optional[Path] = None
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.spill_path = Path(spill_path) if spill_path is not None else None
        self._entries: "OrderedDict[str, float]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    # -- keying ------------------------------------------------------------------

    def key_for(
        self,
        scenario: Scenario,
        tiles: int,
        n_fact: int,
        n_gen: int,
        perfmodel: Optional[PerfModel] = None,
        faults: Optional[str] = None,
    ) -> str:
        """Content key of one simulation (see :func:`simulation_fingerprint`)."""
        return simulation_fingerprint(
            scenario, tiles, n_fact, n_gen, perfmodel, faults
        )

    # -- core LRU ----------------------------------------------------------------

    def get(self, key: str) -> Optional[float]:
        """Cached duration, or None; counts a hit/miss and refreshes LRU."""
        if key in self._entries:
            self._hits += 1
            _obs_count("cache.hit")
            self._entries.move_to_end(key)
            return self._entries[key]
        self._misses += 1
        _obs_count("cache.miss")
        return None

    def put(self, key: str, duration: float) -> None:
        """Insert (or refresh) an entry, evicting the LRU beyond maxsize."""
        self._entries[key] = float(duration)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            _obs_count("cache.evict")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        # Pure membership probe: no stats, no LRU refresh.
        return key in self._entries

    # -- stats -------------------------------------------------------------------

    @property
    def hits(self) -> int:
        """Number of :meth:`get` calls answered from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of :meth:`get` calls that found nothing."""
        return self._misses

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses); 0.0 before any lookup."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (entries are kept)."""
        self._hits = 0
        self._misses = 0

    def stats(self) -> Dict[str, float]:
        """Plain-dict statistics snapshot."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._entries),
        }

    # -- disk spill --------------------------------------------------------------

    def spill(self, path: Optional[Path] = None) -> Path:
        """Write all entries to a JSON file (default: ``spill_path``)."""
        target = Path(path) if path is not None else self.spill_path
        if target is None:
            raise ValueError("no spill path configured")
        from ..measure.sweep import MODEL_VERSION

        payload = {
            "format": SPILL_FORMAT_VERSION,
            "model_version": MODEL_VERSION,
            "entries": dict(self._entries),
        }
        target.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(target, json.dumps(payload, sort_keys=True))
        _obs_count("cache.spill", len(self._entries))
        return target

    def load(self, path: Optional[Path] = None) -> int:
        """Merge entries from a spill file; returns how many were loaded.

        Silently ignores a missing file and discards spills written under
        a different format or sweep model version (their keys embed the
        old calibration, so they could never be requested again anyway).
        An unparseable (e.g. truncated) spill loads nothing, with one
        warning on stderr: only memo hits are lost, and the next
        :meth:`spill` rewrites the file.
        """
        source = Path(path) if path is not None else self.spill_path
        if source is None:
            raise ValueError("no spill path configured")
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
        _obs_count("cache.load", loaded)
        return loaded
