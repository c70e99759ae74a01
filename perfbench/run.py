"""Repository benchmark: cold sweeps, warm tuning and a served tenant mix.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``sweep-cold``
    Builds the banks of scenarios b, c and m from a fresh
    ``DurationCache`` with ``sweep_scenario``, spills the cache, reloads
    it and rebuilds one bank from it.  Operation: one simulated
    configuration.
``tune-warm``
    The Figure 6 protocol (7 strategies plus all-nodes and oracle, 127
    iterations) on the warm b, c, m banks through
    ``evaluate_scenario(workers=1)``.  Operation: one strategy iteration.
``serve-mixed``
    500 closed-loop tenants against an in-process 2-shard
    ``TuningService``; every message makes the wire round trip.
    Operation: one request line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced run, then one untraced unit of work for the tracing overhead, and
prints the per-layer metrics and the self-time table.  The last line of standard output is
the JSON result.  Exit code 2 means the benchmark could not run at all
(for example, no ``src/repro`` next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
CACHE_DIR = WORK_DIR / "cache"
EXPECTED = BENCH_DIR / "expected.json"

#: Environment every run pins; inherited values are ignored.
PINNED_ENV = {
    "REPRO_SIMFAST": "1",
    "REPRO_TILES_101": "40",
    "REPRO_TILES_128": "48",
    "REPRO_SWEEP_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

SETUP_PROBES = 3


def pin_environment(cache_dir: Path) -> dict:
    """Drop inherited ``REPRO_*`` variables and set the pinned ones.

    Must run before numpy or repro is imported.  Returns what was
    inherited, for the run record.
    """
    names = set(PINNED_ENV) | {"REPRO_CACHE_DIR"}
    inherited = {k: v for k, v in os.environ.items()
                 if k.startswith("REPRO_") or k in names}
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            del os.environ[key]
    os.environ.update(PINNED_ENV)
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    return inherited


def import_repro():
    """Import the package from ``src/`` next to the benchmark, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return repro


def run_record(inherited: dict) -> dict:
    import numpy
    import scipy

    return {
        "env": {k: os.environ[k] for k in sorted(PINNED_ENV)},
        "cache_dir": os.path.relpath(CACHE_DIR, ROOT),
        "inherited_ignored": inherited,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


# -- set-up --------------------------------------------------------------------------


def setup_probe(workload: str) -> dict:
    """One set-up in this fresh process: import, clusters, warm banks."""
    start = time.perf_counter()
    import_repro()
    from repro.platform.scenarios import get_scenario

    from perfbench.inputs import SCENARIOS

    imported = time.perf_counter()
    scenarios = [get_scenario(k) for k in SCENARIOS]
    for scenario in scenarios:
        scenario.build_cluster()
    built = time.perf_counter()
    if workload != "sweep-cold":
        load_banks(workload)
    loaded = time.perf_counter()
    return {"import_s": imported - start, "build_cluster_s": built - imported,
            "bank_load_s": loaded - built}


def warm_banks_ready() -> bool:
    """Whether the cache holds banks built by this sweep model version."""
    from repro.measure.sweep import MODEL_VERSION

    try:
        manifest = json.loads((CACHE_DIR / "manifest.json").read_text())
    except (OSError, ValueError):
        return False
    return (manifest.get("model_version") == MODEL_VERSION
            and all((CACHE_DIR / name).is_file()
                    for name in manifest.get("files", ())))


def load_banks(workload: str):
    """Warm banks of b, c, m (and the serve bank store) from the cache."""
    from repro.measure.sweep import cached_bank
    from repro.platform.scenarios import get_scenario

    from perfbench.inputs import SCENARIOS

    if not warm_banks_ready():
        raise RuntimeError(f"no warm banks under {CACHE_DIR}")
    banks = {key: cached_bank(get_scenario(key)) for key in SCENARIOS}
    store = None
    if workload == "serve-mixed":
        from repro.serve.service import BankStore

        store = BankStore()
        for key in SCENARIOS:
            store.put(store.scenario_fingerprint(get_scenario(key)),
                      banks[key])
    return banks, store


def ensure_warm_banks() -> None:
    """Build the warm banks once per checkout, in a child process.

    The build is counted in no run: it happens before any timing, and
    in its own process so it cannot raise this run's peak memory.
    """
    from repro.measure.sweep import MODEL_VERSION

    if warm_banks_ready():
        return
    staging = WORK_DIR / "cache.staging"
    env = dict(os.environ, REPRO_CACHE_DIR=str(staging))
    subprocess.run([sys.executable, str(Path(__file__)), "--build-banks"],
                   env=env, check=True, timeout=900)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    names = []
    for path in sorted(staging.glob("*.json")):
        os.replace(path, CACHE_DIR / path.name)
        names.append(path.name)
    (CACHE_DIR / "manifest.json").write_text(json.dumps(
        {"model_version": MODEL_VERSION, "files": names}))


def build_banks() -> None:
    import_repro()
    from repro.measure.sweep import cached_bank
    from repro.platform.scenarios import get_scenario

    from perfbench.inputs import SCENARIOS

    for key in SCENARIOS:
        cached_bank(get_scenario(key))


def probe_setup(workload: str) -> tuple:
    """Wall time of fresh set-up processes, measured from outside.

    Returns the walls, their host-speed scale (from calibrations taken
    around the probes) and each probe's own breakdown.
    """
    from perfbench import hostspeed

    walls, probes, speed = [], [], [hostspeed.probe()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", workload],
            check=True, timeout=120, capture_output=True, text=True)
        walls.append(time.perf_counter() - start)
        probes.append(json.loads(out.stdout.strip().splitlines()[-1]))
        speed.append(hostspeed.probe())
    factor = hostspeed.REFERENCE_S / statistics.median(speed)
    return walls, factor, probes


# -- running -------------------------------------------------------------------------


def warm_up(ctx) -> None:
    """Finish lazy imports and first-call costs before any timing."""
    from repro.platform.scenarios import get_scenario

    if ctx.workload == "sweep-cold":
        from repro.measure.batch import ScenarioBatch
        from repro.workload import Workload

        scenario = get_scenario("b")
        batch = ScenarioBatch(scenario.build_cluster(),
                              Workload.from_name(scenario.workload))
        batch.measure(len(batch.cluster))
    elif ctx.workload == "tune-warm":
        from repro.evaluate.runner import evaluate_scenario

        evaluate_scenario(ctx.banks["b"], ["DC", "GP-discontinuous"],
                          iterations=16, reps=1)
    else:
        from perfbench.workloads import run_population

        run_population(ctx, ctx.inputs["tenants"][:8], 2, 0, False)


def host_scaled(fn) -> float:
    """Host-speed scale around ``fn()``: calibrations before and after."""
    from perfbench import hostspeed

    before = hostspeed.probe()
    fn()
    return hostspeed.REFERENCE_S / statistics.fmean((before,
                                                     hostspeed.probe()))


def trace_overhead(runner, ctx, traced_scale: float) -> float:
    """Scaled traced wall of a unit of work over its untraced wall, - 1.

    The unit is the first one the traced run timed (sweep-cold: the
    sweep of b, tune-warm: the first cycle, serve-mixed: a pass), run
    again untraced afterwards, so both see the same warm process.
    """
    from perfbench.workloads import Context

    probe = Context(workload=ctx.workload, inputs=ctx.inputs,
                    expected=ctx.expected, seconds=0.0, work_dir=ctx.work_dir,
                    check_defaults=ctx.check_defaults, banks=ctx.banks,
                    bank_store=ctx.bank_store)
    untraced_scale = host_scaled(lambda: runner(probe))
    ctx.attempted += probe.attempted
    ctx.failed += probe.failed
    ctx.failures += probe.failures
    return (ctx.units[0][1] * traced_scale
            / (probe.units[0][1] * untraced_scale) - 1.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("sweep-cold", "tune-warm", "serve-mixed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    parser.add_argument("--build-banks", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if str(BENCH_DIR) in sys.path:
        sys.path.remove(str(BENCH_DIR))
    sys.path.insert(0, str(ROOT))
    if args.setup_probe or args.build_banks:
        # Children inherit the parent's pinned environment unchanged.
        if args.build_banks:
            build_banks()
        else:
            print(json.dumps(setup_probe(args.setup_probe)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    inherited = pin_environment(CACHE_DIR)
    import_repro()
    from perfbench import metrics
    from perfbench.hostspeed import Calibration
    from perfbench.inputs import DEFAULT_SEED, generate
    from perfbench.spans import Recorder
    from perfbench.workloads import (
        AFTER_RUN, SWEEP_MIN_CONFIGS, WORKLOAD_RUNNERS, Context,
        trace_common_layers)

    record = run_record(inherited)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    expected = json.loads(EXPECTED.read_text())
    workload = args.workload
    ctx = Context(workload=workload, inputs=generate(workload, args.seed),
                  expected=expected, seconds=args.seconds, work_dir=WORK_DIR,
                  check_defaults=args.seed == DEFAULT_SEED,
                  min_ops=SWEEP_MIN_CONFIGS if workload == "sweep-cold" else 0)

    # Built by whichever run comes first in a checkout, sweep-cold too, so
    # the one-time build always lands in the checkout's first run.
    ensure_warm_banks()
    setup_walls, setup_factor, probes = probe_setup(workload)
    if workload != "sweep-cold":
        ctx.banks, ctx.bank_store = load_banks(workload)
        for key, bank in sorted(ctx.banks.items()):
            want = expected["makespans"][key]
            ctx.check({str(n): v for n, v in bank.true_means.items()} == want,
                      f"warm bank {key}: makespans differ from expected")
    warm_up(ctx)

    runner = WORKLOAD_RUNNERS[workload]
    if args.trace:
        ctx.rec = Recorder(workload)
        trace_common_layers(ctx.rec, ctx)

        def traced_run() -> None:
            try:
                with ctx.rec.span("bench.run"):
                    runner(ctx)
            finally:
                ctx.rec.unpatch()

        traced_scale = host_scaled(traced_run)
        traced_wall = ctx.rec.ends[0] - ctx.rec.starts[0]
        covered = sum(ctx.rec.self_times().values()) / traced_wall
        ctx.check(abs(covered - 1.0) <= 0.05,
                  f"layer self times cover {covered:.1%} of traced wall")
        overhead = trace_overhead(runner, ctx, traced_scale)
        if workload == "sweep-cold":
            from perfbench.workloads import reference_ratio

            reference_ratio(ctx)
    else:
        ctx.speed = Calibration()
        ctx.speed.take()
        runner(ctx)
        ctx.speed.take()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload in AFTER_RUN:
        AFTER_RUN[workload](ctx)

    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("record " + json.dumps(record, sort_keys=True))
    if args.trace:
        report = metrics.per_layer(ctx, probes, traced_wall, overhead)
        rows = metrics.PER_LAYER
        print("per-layer self time (traced run):")
        print("\n".join(metrics.layer_table(ctx, traced_wall)))
        ctx.rec.write(WORK_DIR / f"spans-{workload}.jsonl")
    else:
        report = metrics.end_to_end(ctx, setup_walls, setup_factor,
                                    peak_rss_mb)
        rows = metrics.END_TO_END
    print("metrics:")
    print("\n".join(metrics.format_report(report, workload, rows)))
    error_rate = ctx.failed / ctx.attempted if ctx.attempted else 1.0
    print(f"  error_rate {error_rate:.6g} ratio ({ctx.failed}/{ctx.attempted} "
          "operations failed)")
    for failure in ctx.failures:
        print(f"  FAILED: {failure}")
    result = {
        "correct": ctx.failed == 0 and ctx.attempted > 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": report.values[name], "unit": unit}
                    for name, unit, _ in rows},
    }
    (WORK_DIR / f"result-{workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
