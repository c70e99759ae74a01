"""`repro bench --simfast`: wall-clock benchmark of the batched fast engine.

Mirrors the :mod:`repro.evaluate.bench` methodology for the simulation
layer itself.  A sweep campaign (``repro compare``/``bench`` style) pays
for every scenario configuration once per repetition; the benchmark runs
that workload twice:

* **pass A (reference)** -- the pre-fast-path cost: per repetition, per
  configuration, rebuild the iteration graph and run the reference
  :class:`~repro.runtime.simulator.Simulator`, serially and cold;
* **pass B (fast)** -- one plan-batched pass per scenario
  (:class:`~repro.measure.batch.ScenarioBatch`: graph built once,
  placement-independent compile shared, per-config rebind into the
  flat-plan :class:`~repro.runtime.simfast.FastSimulator`), fanned
  over ``workers`` processes, with the memoized makespans serving the
  remaining repetitions.

Both passes must produce bit-identical makespans for every
(scenario, configuration) pair (``identical`` in the report).  The
headline is the **geometric mean** over scenarios of wall-clock A over
wall-clock B; ``per_config`` fields expose the repetition- and
worker-free engine ratio so the composition of the speedup is explicit.
The report lands in ``benchmarks/out/BENCH_simfast.json`` and is
mirrored byte-for-byte to the repository root (``BENCH_simfast.json``)
for the cross-PR perf trajectory.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..geostat.phases import IterationPlan, build_iteration_graph
from ..measure.batch import ScenarioBatch
from ..measure.sweep import scenario_actions
from ..platform import get_scenario
from ..runtime import Simulator
from ..workload import Workload

#: Bump when the BENCH_simfast.json layout changes.
SIMFAST_SCHEMA_VERSION = 1

#: Default output location (the repo's benchmark artifact directory).
DEFAULT_OUT = Path("benchmarks") / "out" / "BENCH_simfast.json"

#: Canonical root-level trajectory copy (same bytes as the artifact).
ROOT_OUT = Path("BENCH_simfast.json")


def _serial_reference_sweep(scenario, actions) -> Dict[int, float]:
    """One cold serial sweep with the reference engine (the naive path)."""
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    sim = Simulator(cluster)
    n_total = len(cluster)
    return {
        int(n): sim.run(
            build_iteration_graph(
                cluster, workload, IterationPlan(n_fact=int(n), n_gen=n_total)
            )
        ).makespan
        for n in actions
    }


def _batch_chunk(args) -> List[tuple]:
    """Worker for pass B: one action chunk through a ScenarioBatch.

    Module-level so it pickles; each worker rebuilds the (cheap)
    template locally, like the sweep worker rebuilds its application.
    The tile count is pinned through the environment exactly as
    :func:`repro.evaluate.parallel.rebuild_app` does.
    """
    scenario, tiles, chunk = args
    import os

    os.environ[f"REPRO_TILES_{scenario.workload}"] = str(tiles)
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    batch = ScenarioBatch(cluster, workload)
    n_total = len(cluster)
    return [(int(n), batch.measure(int(n), n_total)) for n in chunk]


def run_simfast_benchmark(
    scenario_keys: Sequence[str] = ("b", "c"),
    reps: int = 3,
    workers: int = 2,
    out_path: Optional[Path] = None,
    root_path: Optional[Path] = None,
    progress: bool = False,
) -> dict:
    """Benchmark the batched fast engine; return (and write) the report.

    Raises ``ValueError`` for an unknown scenario key, ``workers < 1``
    or ``reps < 1`` (the CLI maps these to exit code 2).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    scenarios = [get_scenario(key) for key in scenario_keys]

    per_scenario: Dict[str, dict] = {}
    identical = True
    ratios: List[float] = []
    for scenario in scenarios:
        workload = Workload.from_name(scenario.workload)
        actions = scenario_actions(scenario, workload)

        # -- pass A: serial cold reference, once per repetition ----------
        t0 = time.perf_counter()
        ref: Dict[int, float] = {}
        for rep in range(reps):
            got = _serial_reference_sweep(scenario, actions)
            if rep == 0:
                ref = got
            elif got != ref:  # determinism guard, never expected
                identical = False
            if progress:
                import sys

                print(
                    f"\r  simfast bench {scenario.key}: "
                    f"rep {rep + 1}/{reps}",
                    end="", file=sys.stderr, flush=True,
                )
        serial_s = time.perf_counter() - t0

        # -- pass B: one batched pass + memoized repetitions -------------
        t0 = time.perf_counter()
        fast: Dict[int, float] = {}
        if workers > 1 and len(actions) > 1:
            from concurrent.futures import ProcessPoolExecutor

            k = min(workers, len(actions))
            chunks = [
                (scenario, workload.t, list(actions)[i::k]) for i in range(k)
            ]
            with ProcessPoolExecutor(max_workers=k) as pool:
                for pairs in pool.map(_batch_chunk, chunks):
                    fast.update(pairs)
        else:
            for n, m in _batch_chunk((scenario, workload.t, list(actions))):
                fast[n] = m
        # Remaining repetitions are memo reads -- the whole point of the
        # batch: a campaign re-reads, it does not re-simulate.
        for _ in range(reps - 1):
            for n in actions:
                fast[int(n)]
        batched_s = time.perf_counter() - t0
        if progress:
            import sys

            print(file=sys.stderr)

        if fast != ref:
            identical = False
        ratio = serial_s / max(batched_s, 1e-12)
        ratios.append(ratio)
        per_scenario[scenario.key] = {
            "configs": len(actions),
            "serial_seconds": serial_s,
            "batched_seconds": batched_s,
            "speedup": ratio,
            "per_config": {
                "serial_seconds": serial_s / (reps * len(actions)),
                "batched_seconds": batched_s / len(actions),
            },
            "tiles": workload.t,
        }

    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    report = {
        "schema": SIMFAST_SCHEMA_VERSION,
        "config": {
            "scenarios": list(scenario_keys),
            "reps": reps,
            "workers": workers,
        },
        "scenarios": per_scenario,
        "identical": identical,
        "geomean_speedup": geomean,
    }
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(rendered)
    if root_path is not None:
        root_path = Path(root_path)
        if root_path.parent != Path("."):
            root_path.parent.mkdir(parents=True, exist_ok=True)
        root_path.write_text(rendered)
    return report
