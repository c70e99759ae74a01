"""Command-line interface: regenerate any table/figure from the terminal.

Examples
--------
::

    python -m repro table2
    python -m repro sweep i                 # Figure 2/5 style curve
    python -m repro compare i --reps 10     # Figure 6 panel
    python -m repro replay i GP-discontinuous --iterations 5 8 20 100
    python -m repro fig6 --reps 10          # all 16 scenarios
    python -m repro overhead                # Figure 7
    python -m repro grid f                  # Figure 8 heatmap
    python -m repro compare i --trace t.jsonl --trace-ticks
    python -m repro stats t.jsonl           # aggregate a trace
    python -m repro timeline b              # Figure 1 grade Chrome trace
    python -m repro timeline b --report BENCH_timeline.json
    python -m repro faults list             # canned fault schedules
    python -m repro faults run i --reps 5   # raw vs resilient campaign
    python -m repro serve bench             # multi-tenant tuning bench
    python -m repro fuzz run --count 24     # strategy properties on a corpus
    python -m repro fuzz replay             # committed regression scenarios
    python -m repro fuzz promote 4 --strategy UCB --check regret-bound
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import sys

import numpy as np


# -- argument converters ------------------------------------------------------
#
# Every bad argument is rejected here, while argparse parses, so it exits 2
# before any sweep runs.  They raise ``ArgumentTypeError`` because argparse
# replaces the text of a plain ``ValueError`` with "invalid <type> value".


def _bounded(kind, lo, strict=False):
    """A ``kind`` (int or float) ``>= lo``, or ``> lo`` if ``strict``."""
    def convert(text: str):
        value = kind(text)
        if value < lo or (strict and value == lo):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {lo}, got {value}")
        return value

    convert.__name__ = kind.__name__  # "invalid int value: 'two'"
    return convert


def _known(what: str, module: str, attr: str):
    """A name listed by ``module.attr``, a collection or a function."""
    def convert(text: str) -> str:
        names = getattr(importlib.import_module(module, __package__), attr)
        known = sorted(names() if callable(names) else names)
        if text not in known:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {text!r}; known: {known}")
        return text

    convert.__name__ = what
    return convert


_scenario = _known("scenario", ".platform", "SCENARIOS")
_strategy = _known("strategy", ".strategies.registry", "registered_names")
_family = _known("family", ".fuzz", "FAMILIES")
_schedule = _known("schedule", ".faults.models", "CANNED_SCHEDULES")
_count = _bounded(int, 1)
_non_negative = _bounded(int, 0)  # seeds, indices; --n-fact 0 = all nodes
_positive = _bounded(float, 0, strict=True)
_fault_iterations = _bounded(int, 9)  # fault windows span thirds of a run


@contextlib.contextmanager
def _maybe_traced(args):
    """Activate a JSONL trace for one command when ``--trace`` is given.

    ``--trace-ticks`` swaps the wall clock for the injected tick counter,
    making the trace bytes reproducible run-to-run (see
    :mod:`repro.obs.clock`).  Tracing is inert: command outputs are
    bit-identical with or without it.
    """
    path = getattr(args, "trace", None)
    if not path:
        yield
        return
    from . import obs

    obs.start_trace(path, ticks=bool(getattr(args, "trace_ticks", False)))
    try:
        yield
    finally:
        obs.finish_trace()
        print(f"trace written to {path}", file=sys.stderr)


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default="", metavar="PATH",
                   help="write a JSONL obs trace of this run to PATH")
    p.add_argument("--trace-ticks", action="store_true",
                   help="trace with the injected tick clock "
                        "(deterministic, byte-reproducible)")


def _cmd_table2(args) -> None:
    from .evaluate import format_table, table2

    rows = table2()
    print(format_table(
        ["cat", "site", "machine", "CPU", "GPU", "GFlop/s", "NIC Gb/s"],
        [[r["category"], r["site"], r["machine"], r["cpu"], r["gpu"],
          f"{r['total_gflops']:.0f}", f"{r['nic_gbps']:.0f}"] for r in rows],
    ))


def _cmd_scenarios(args) -> None:
    from .evaluate import format_table
    from .platform import all_scenarios

    print(format_table(
        ["key", "label", "mode", "nodes"],
        [[s.key, s.label, s.mode, s.total_nodes] for s in all_scenarios()],
    ))


def _cmd_sweep(args) -> None:
    from .evaluate import sweep_table
    from .measure import cached_bank
    from .platform import get_scenario
    from .viz import line_plot

    with _maybe_traced(args):
        bank = cached_bank(get_scenario(args.scenario), progress=True)
        print(sweep_table(bank))
        x = np.asarray(bank.actions, dtype=float)
        print(line_plot(
            x,
            {"measured": np.array([bank.mean(n) for n in bank.actions]),
             "LP": np.array([bank.lp[n] for n in bank.actions])},
            x_label="factorization nodes", y_label="iteration time [s]",
        ))


def _cmd_compare(args) -> None:
    from .evaluate import evaluate_scenario, evaluation_table
    from .measure import cached_bank
    from .platform import get_scenario

    with _maybe_traced(args):
        bank = cached_bank(get_scenario(args.scenario), progress=True)
        print(evaluation_table(evaluate_scenario(bank, reps=args.reps)))


def _cmd_fig6(args) -> None:
    from .evaluate import figure6, figure6_matrix

    with _maybe_traced(args):
        evaluations = figure6(reps=args.reps, progress=True)
        print(figure6_matrix(evaluations))


def _cmd_replay(args) -> None:
    from .evaluate import figure4_snapshots
    from .measure import cached_bank
    from .platform import get_scenario

    bank = cached_bank(get_scenario(args.scenario), progress=True)
    snaps = figure4_snapshots(bank, args.strategy, iterations=args.iterations)
    print(f"{args.strategy} on {bank.label} (optimum n = {bank.best_action()})")
    for snap in snaps:
        chosen = " ".join(f"{n}:{c}" for n, c in sorted(snap.counts.items()))
        print(f"iteration {snap.iteration:>3}: next n = {snap.next_action:>3} | {chosen}")


def _cmd_overhead(args) -> None:
    from .evaluate import figure7

    with _maybe_traced(args):
        result = figure7(reps=args.reps, iterations=args.iterations)
        means = result.mean_per_iteration * 1e3
        print("per-iteration overhead [ms]:",
              np.array2string(means, precision=2))
        print(f"steady state: {result.steady_state_mean * 1e3:.2f} ms; "
              f"relative: {result.relative_overhead:.4%}")


def _cmd_stats(args) -> None:
    import json

    from .obs import TraceError, load_trace, render_stats, stats_to_json

    try:
        stats = load_trace(args.trace_file)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except OSError as exc:
        print(f"error: {args.trace_file}: {exc.strerror or exc}",
              file=sys.stderr)
        sys.exit(2)
    if args.format == "json":
        print(json.dumps(stats_to_json(stats), indent=2, sort_keys=True))
    else:
        print(render_stats(stats))


def _cmd_timeline(args) -> None:
    from pathlib import Path

    from .evaluate import format_table
    from .obs.timeline import export_timeline
    from .runtime import render_ascii, utilization_timeline

    out = export_timeline(
        args.scenario,
        Path(args.out),
        n_fact=args.n_fact or None,
        n_gen=args.n_gen or None,
    )
    analysis = out["analysis"]
    cfg = out["config"]
    print(f"timeline {args.scenario}: n_gen={cfg['n_gen']}, "
          f"n_fact={cfg['n_fact']}, {analysis.task_count} tasks, "
          f"{analysis.transfer_count} transfers")
    print(f"  makespan       : {analysis.makespan:.4f} s")
    print(f"  critical path  : {analysis.critical_path_s:.4f} s "
          f"({analysis.critical_path_frac:.0%} of makespan)")
    print(f"  mean idleness  : {analysis.mean_idleness:.1%} "
          f"(worst node {analysis.max_idleness:.1%})")
    print(f"  comm time      : {analysis.comm_time:.4f} s "
          f"({analysis.comm_bytes / 1e9:.3f} GB)")
    print(format_table(
        ["phase", "start [s]", "end [s]", "span [s]", "tasks", "cp [s]"],
        [[p.phase, f"{p.start:.3f}", f"{p.end:.3f}", f"{p.span_s:.3f}",
          p.tasks, f"{p.critical_path_s:.3f}"] for p in analysis.phases],
    ))
    timeline = utilization_timeline(out["result"], out["cluster"], nbins=72)
    print(render_ascii(timeline, out["cluster"], show_transfers=True))
    print(f"  chrome : {out['path']}")
    if args.report:
        from .obs import write_root_report
        from .obs.timeline import METRIC_UNITS

        path = write_root_report(args.report, args.scenario, cfg,
                                 out["metrics"], METRIC_UNITS)
        print(f"  report : {path}")


def _faults_schedules(args):
    """Canned schedules sized to the command's nodes/iterations."""
    from .faults import canned_schedules

    return canned_schedules(args.nodes, args.iterations, seed=args.seed)


def _cmd_faults_list(args) -> None:
    from .evaluate import format_table

    schedules = _faults_schedules(args)
    print(format_table(
        ["name", "faults", "kinds"],
        [[key, len(s), " ".join(sorted({f.kind for f in s.faults}))]
         for key, s in sorted(schedules.items())],
    ))


def _cmd_faults_describe(args) -> None:
    schedule = _faults_schedules(args)[args.name]
    print(schedule.describe())
    print(f"  fingerprint  {schedule.fingerprint()[:16]}…")
    if args.json:
        print(schedule.to_json())


def _cmd_faults_run(args) -> None:
    from .evaluate import campaign_table, run_campaign, write_campaign_report
    from .faults import canned_schedules
    from .measure import cached_bank
    from .platform import get_scenario

    with _maybe_traced(args):
        bank = cached_bank(get_scenario(args.scenario), progress=True)
        canned = canned_schedules(bank.n_total, args.iterations,
                                  seed=args.seed)
        result = run_campaign(
            bank,
            schedules={k: canned[k] for k in args.schedules},
            strategies=args.strategies or None,
            iterations=args.iterations,
            reps=args.reps,
            seed=args.seed,
        )
        print(f"fault campaign on {bank.label}: "
              f"{len(result.fingerprints)} schedule(s), reps={args.reps}, "
              f"iterations={args.iterations}")
        print(campaign_table(result))
        for imp in result.improvements():
            mark = "improved" if imp["improved"] else "NOT improved"
            print(f"  {imp['schedule']:<14} Resilient({imp['strategy']}) "
                  f"regret {imp['resilient_regret']:.2f} vs raw "
                  f"{imp['raw_regret']:.2f} -> {mark}")
        if args.out:
            path = write_campaign_report(result, path=args.out)
            print(f"  report : {path}")


def _cmd_serve_bench(args) -> None:
    from .serve.loadgen import (
        render_bench_summary,
        run_bench,
        write_serve_report,
    )

    report = run_bench(
        tenants=args.tenants,
        shards=args.shards,
        seed=args.seed,
        fuzz_count=args.fuzz,
        arrival_window=args.arrival_window,
        p99_bound=args.p99_bound,
        progress=None if args.quiet else (lambda m: print(f"  {m}")),
    )
    print(render_bench_summary(report, shards=args.shards))
    if args.out:
        path = write_serve_report(report, path=args.out)
        print(f"  report : {path}")
    if not report["ok"]:
        sys.exit(1)


def _cmd_fuzz_run(args) -> None:
    import json
    from pathlib import Path

    from .evaluate import format_table
    from .fuzz import (
        FAMILIES,
        FuzzConfig,
        PropertyConfig,
        promote,
        run_properties,
        sample_corpus,
        shrink,
    )
    from .obs import write_atomic

    families = tuple(args.families) if args.families else FAMILIES
    fuzz_cfg = FuzzConfig(iterations=args.iterations)
    corpus = sample_corpus(args.count, args.seed, families=families,
                           config=fuzz_cfg)
    config = PropertyConfig(
        iterations=args.iterations,
        regret_bound=args.bound,
        strategies=tuple(args.strategies) if args.strategies else None,
    )

    def progress(done: int, total: int) -> None:
        print(f"\r  fuzz corpus: {done}/{total} scenarios", end="",
              file=sys.stderr, flush=True)

    report = run_properties(corpus, config, fuzz_config=fuzz_cfg,
                            progress=progress)
    print(file=sys.stderr)

    payload = report.to_dict()
    faulted = sum(1 for p in corpus if p.schedule is not None)
    print(f"fuzz run: seed={args.seed}, {len(corpus)} scenario(s) "
          f"({', '.join(families)}; {faulted} faulted), "
          f"iterations={args.iterations}")
    print(format_table(
        ["strategy", "max ratio", "mean ratio", "bound", "failures"],
        [[name, f"{s['max_ratio']:.3f}", f"{s['mean_ratio']:.3f}",
          f"{s['bound']:.3f}", s["failures"]]
         for name, s in payload["strategies"].items()],
    ))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"  report : {out}")

    if report.ok:
        print("  all properties held")
        return
    by_key = {o.platform.key: o.platform for o in report.outcomes}
    artifact_dir = Path(args.artifact_dir)
    for failure in report.failures:
        print(f"  FAILED {failure.key} {failure.strategy} {failure.check}: "
              f"{failure.detail}")
        platform, steps = by_key[failure.key], ()
        if not args.no_shrink:
            result = shrink(platform, failure, config)
            platform, failure, steps = (
                result.platform, result.failure, result.steps
            )
            print(f"    shrunk in {len(steps)} step(s): "
                  f"{' -> '.join(steps) if steps else '(already minimal)'}")
        path = promote(platform, failure, config,
                       directory=artifact_dir, steps=steps)
        print(f"    artifact : {path}")
    sys.exit(1)


def _cmd_fuzz_replay(args) -> None:
    from pathlib import Path

    from .fuzz import GOLDEN_DIR, replay_golden

    directory = Path(args.dir) if args.dir else GOLDEN_DIR
    if args.entries:
        paths = []
        for entry in args.entries:
            path = Path(entry)
            if not path.exists():
                path = directory / entry
            if not path.exists():
                print(f"error: no such corpus entry {entry!r} "
                      f"(looked in {directory})", file=sys.stderr)
                sys.exit(2)
            paths.append(path)
    else:
        paths = sorted(directory.glob("*.json"))
        if not paths:
            print(f"no promoted scenarios under {directory}")
            return
    reproduced = 0
    for path in paths:
        try:
            failures = replay_golden(path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(2)
        if failures:
            reproduced += len(failures)
            for f in failures:
                print(f"REPRODUCED {path.name}: {f.strategy} {f.check} "
                      f"observed={f.observed:.4f} bound={f.bound:.4f}")
        else:
            print(f"ok {path.name}")
    print(f"replayed {len(paths)} scenario(s), {reproduced} reproduced")
    if reproduced:
        sys.exit(1)


def _cmd_fuzz_promote(args) -> None:
    from pathlib import Path

    from .fuzz import (
        PropertyConfig,
        check_platform,
        promote,
        sample_platform,
        shrink,
    )

    platform = sample_platform(args.index, args.seed)
    config = PropertyConfig(
        iterations=args.iterations,
        regret_bound=args.bound,
        strategies=(args.strategy,),
        check_replay=args.check == "replay",
    )
    outcome = check_platform(platform, config)
    matches = [f for f in outcome.failures if f.check == args.check]
    if not matches:
        print(f"property {args.check!r} holds for {args.strategy} on "
              f"{platform.key}; nothing to promote")
        sys.exit(1)
    failure, steps = matches[0], ()
    if not args.no_shrink:
        result = shrink(platform, failure, config)
        platform, failure, steps = (
            result.platform, result.failure, result.steps
        )
        print(f"shrunk in {len(steps)} step(s): "
              f"{' -> '.join(steps) if steps else '(already minimal)'}")
    path = promote(platform, failure, config, directory=Path(args.dir),
                   steps=steps)
    print(f"promoted : {path}")


def _cmd_grid(args) -> None:
    from .evaluate import figure8
    from .viz import heatmap

    result = figure8(args.scenario, step=args.step, progress=True)
    print(heatmap(result.durations, row_labels=result.gen_counts,
                  col_labels=result.fact_counts))
    gen, fact, dur = result.best()
    print(f"best: n_gen={gen}, n_fact={fact} ({dur:.2f} s); "
          f"all-nodes {result.all_nodes_duration():.2f} s")


def _cmd_trace(args) -> None:
    from .evaluate import figure1

    result = figure1(args.scenario)
    for desc, art, makespan in zip(result.descriptions, result.timelines,
                                   result.makespans):
        print(f"\n{desc} (makespan {makespan:.2f} s)\n{art}")


def _cmd_checks(args) -> None:
    from .measure import consistency_report
    from .platform import get_scenario
    from .workload import Workload

    scenario = get_scenario(args.scenario)
    cluster = scenario.build_cluster()
    workload = Workload.from_name(scenario.workload)
    n_fact = args.n_fact or max(2, len(cluster) // 2)
    print(f"simulator consistency checks on {scenario.full_label}, "
          f"n_fact={n_fact}:")
    ok = True
    for c in consistency_report(cluster, workload, n_fact):
        status = "PASS" if c.passed else "FAIL"
        ok = ok and c.passed
        print(f"  [{status}] {c.name:24} {c.detail}")
    if not ok:
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the IPDPS 2022 multi-phase adaptation paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table2", help="machine catalog").set_defaults(fn=_cmd_table2)
    sub.add_parser("scenarios", help="the 16 scenarios").set_defaults(fn=_cmd_scenarios)

    p = sub.add_parser("sweep", help="duration-vs-nodes curve (Fig 2/5)")
    p.add_argument("scenario", type=_scenario, help="scenario key a..p")
    _add_trace_args(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("compare", help="all strategies on one scenario (Fig 6 panel)")
    p.add_argument("scenario", type=_scenario)
    p.add_argument("--reps", type=_count, default=10)
    _add_trace_args(p)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("fig6", help="all strategies on all scenarios")
    p.add_argument("--reps", type=_count, default=10)
    _add_trace_args(p)
    p.set_defaults(fn=_cmd_fig6)

    p = sub.add_parser("replay", help="step-by-step GP state (Fig 4)")
    p.add_argument("scenario", type=_scenario)
    p.add_argument("strategy", type=_strategy)
    p.add_argument("--iterations", type=_non_negative, nargs="+",
                   default=[5, 8, 20, 100])
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("overhead", help="online strategy overhead (Fig 7)")
    p.add_argument("--reps", type=_count, default=10)
    p.add_argument("--iterations", type=_count, default=30)
    _add_trace_args(p)
    p.set_defaults(fn=_cmd_overhead)

    p = sub.add_parser("stats", help="aggregate a JSONL obs trace")
    p.add_argument("trace_file", help="trace written by --trace")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (json: machine-readable aggregate)")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "timeline",
        help="task-level timeline export (Chrome/Perfetto trace)",
    )
    p.add_argument("scenario", nargs="?", default="b", type=_scenario,
                   help="scenario key a..p")
    p.add_argument("--n-fact", type=_non_negative, default=0,
                   help="factorization node count (default: all nodes)")
    p.add_argument("--n-gen", type=_non_negative, default=0,
                   help="generation node count (default: all nodes)")
    p.add_argument("--out", default=str(Path("benchmarks") / "out"),
                   help="output directory of the trace")
    p.add_argument("--report", default="", metavar="PATH",
                   help="also write the metrics report (BENCH_timeline.json)"
                        " to PATH")
    p.set_defaults(fn=_cmd_timeline)

    p = sub.add_parser("faults", help="fault injection & resilience campaigns")
    faults_sub = p.add_subparsers(dest="faults_command", required=True)

    def _faults_common(pp) -> None:
        pp.add_argument("--nodes", type=_bounded(int, 2), default=8,
                        help="cluster size the canned schedules are sized to")
        pp.add_argument("--iterations", type=_fault_iterations, default=60,
                        help="run length the fault windows scale with")
        pp.add_argument("--seed", type=int, default=0,
                        help="schedule seed (interference jitter streams)")

    pp = faults_sub.add_parser("list", help="canned fault schedules")
    _faults_common(pp)
    pp.set_defaults(fn=_cmd_faults_list)

    pp = faults_sub.add_parser("describe", help="one schedule in detail")
    pp.add_argument("name", type=_schedule,
                    help="schedule name (see `repro faults list`)")
    pp.add_argument("--json", action="store_true",
                    help="also print the canonical JSON rendering")
    _faults_common(pp)
    pp.set_defaults(fn=_cmd_faults_describe)

    pp = faults_sub.add_parser(
        "run", help="raw vs resilient campaign on one scenario"
    )
    pp.add_argument("scenario", nargs="?", default="i", type=_scenario,
                    help="scenario key a..p")
    pp.add_argument("--schedules", nargs="+", type=_schedule,
                    default=["straggler", "crash", "compound"],
                    help="canned schedule names to campaign over")
    pp.add_argument("--strategies", nargs="+", default=[], type=_strategy,
                    help="strategy names (default: DC, UCB, "
                         "GP-discontinuous and their Resilient(...) "
                         "wrappers)")
    pp.add_argument("--iterations", type=_fault_iterations, default=60)
    pp.add_argument("--reps", type=_count, default=5)
    pp.add_argument("--seed", type=int, default=0,
                    help="schedule seed (interference jitter streams)")
    pp.add_argument("--out", default="",
                    help="write the campaign report to this path "
                         "(default: no report)")
    _add_trace_args(pp)
    pp.set_defaults(fn=_cmd_faults_run)

    p = sub.add_parser("serve", help="tuning-as-a-service front end")
    serve_sub = p.add_subparsers(dest="serve_command", required=True)

    pp = serve_sub.add_parser(
        "bench", help="deterministic multi-tenant load generator"
    )
    pp.add_argument("--tenants", type=_count, default=500,
                    help="simulated tenant population size")
    pp.add_argument("--shards", type=_count, default=4,
                    help="shard workers (the report is byte-identical "
                         "across shard counts)")
    pp.add_argument("--seed", type=_non_negative, default=0,
                    help="population seed (tenant mix + client streams)")
    pp.add_argument("--fuzz", type=_non_negative, default=4,
                    help="fuzzed platforms mixed into the scenario pool")
    pp.add_argument("--arrival-window", type=_count, default=64,
                    help="ticks over which tenant arrivals are spread")
    pp.add_argument("--p99-bound", type=_positive, default=8.0,
                    help="propose-latency p99 SLO bound in shard ticks")
    pp.add_argument("--out", default="",
                    help="write the bench report to this path "
                         "(default: no report)")
    pp.add_argument("--quiet", action="store_true",
                    help="suppress progress lines")
    pp.set_defaults(fn=_cmd_serve_bench)

    p = sub.add_parser(
        "fuzz", help="seeded scenario fuzzing & strategy property tests"
    )
    fuzz_sub = p.add_subparsers(dest="fuzz_command", required=True)

    def _fuzz_common(pp) -> None:
        pp.add_argument("--seed", type=_non_negative, default=0,
                        help="corpus root seed (>= 0)")
        pp.add_argument("--iterations", type=_fault_iterations, default=50,
                        help="adaptation iterations per cell (>= 9)")
        pp.add_argument("--bound", type=_positive, default=0.65,
                        help="regret-ratio bound on adaptive strategies")
        pp.add_argument("--no-shrink", action="store_true",
                        help="skip minimization of failing scenarios")

    pp = fuzz_sub.add_parser(
        "run", help="run every strategy property over a fuzzed corpus"
    )
    _fuzz_common(pp)
    pp.add_argument("--count", type=_count, default=24,
                    help="corpus size (scenarios)")
    pp.add_argument("--families", nargs="+", default=[], type=_family,
                    help="workload families (cholesky, msr; default both)")
    pp.add_argument("--strategies", nargs="+", default=[], type=_strategy,
                    help="strategy names (default: every registered one)")
    pp.add_argument("--out", default="BENCH_fuzz.json",
                    help="canonical report JSON ('' disables)")
    pp.add_argument("--artifact-dir",
                    default=str(Path("benchmarks") / "out" / "fuzz"),
                    help="where shrunk failing scenarios are written")
    pp.set_defaults(fn=_cmd_fuzz_run)

    pp = fuzz_sub.add_parser(
        "replay", help="re-check promoted regression scenarios"
    )
    pp.add_argument("entries", nargs="*",
                    help="golden file names or paths (default: every "
                         "committed one)")
    pp.add_argument("--dir", default="",
                    help="golden directory (default tests/goldens/fuzz)")
    pp.set_defaults(fn=_cmd_fuzz_replay)

    pp = fuzz_sub.add_parser(
        "promote", help="shrink one failing scenario into a canned regression"
    )
    pp.add_argument("index", type=_non_negative, help="corpus index of the scenario")
    pp.add_argument("--strategy", required=True, type=_strategy,
                    help="registered strategy name")
    pp.add_argument("--check", required=True,
                    choices=("regret-bound", "regret-monotone", "replay"))
    pp.add_argument("--dir", default=str(Path("tests") / "goldens" / "fuzz"),
                    help="output directory of the promoted scenario")
    _fuzz_common(pp)
    pp.set_defaults(fn=_cmd_fuzz_promote)

    p = sub.add_parser("grid", help="2-D gen x fact sweep (Fig 8)")
    p.add_argument("scenario", nargs="?", default="f", type=_scenario)
    p.add_argument("--step", type=_count, default=2)
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("trace", help="three-iteration timelines (Fig 1)")
    p.add_argument("scenario", nargs="?", default="b", type=_scenario)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("checks", help="simulator consistency checks")
    p.add_argument("scenario", nargs="?", default="b", type=_scenario)
    p.add_argument("--n-fact", type=_non_negative, default=0)
    p.set_defaults(fn=_cmd_checks)

    return parser


def _check_node_counts(parser: argparse.ArgumentParser, args) -> None:
    """Reject ``--n-fact``/``--n-gen`` above the scenario's node count.

    The bound depends on the scenario argument, so it is checked right
    after parsing rather than by a converter; it still exits 2 before
    any graph is built.
    """
    from .platform import get_scenario

    nodes = get_scenario(args.scenario).total_nodes
    for flag in ("n_fact", "n_gen"):
        value = getattr(args, flag, 0)
        if value > nodes:
            parser.error(
                f"argument --{flag.replace('_', '-')}: must be <= {nodes}, "
                f"the node count of scenario {args.scenario!r}; got {value}")


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "n_fact"):
        _check_node_counts(parser, args)
    try:
        args.fn(args)
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`): not an error.
        import os

        os.close(sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
