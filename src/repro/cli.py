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
    python -m repro timeline b              # Figure 1 grade exports
    python -m repro perf record b           # append to the perf ledger
    python -m repro perf check b            # gate against the baseline
    python -m repro faults list             # canned fault schedules
    python -m repro faults run i --reps 5   # raw vs resilient campaign
    python -m repro serve bench             # multi-tenant tuning bench
    python -m repro serve run --port 8902   # live JSONL tuning service
    python -m repro fuzz run --count 24     # strategy properties on a corpus
    python -m repro fuzz replay             # committed regression scenarios
    python -m repro fuzz promote 4 --strategy UCB --check regret-bound
    python -m repro obs series t.jsonl      # windowed series aggregates
    python -m repro obs slo t.jsonl         # SLO verdicts over a trace
    python -m repro obs forensics b --sweep # rank detector configurations
    python -m repro obs convergence b       # learning-trajectory analytics
    python -m repro obs dash b --out d.html # unified HTML dashboard
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import NoReturn

import numpy as np


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

    from .obs import load_trace, render_stats, stats_to_json

    stats = load_trace(args.trace_file)
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
        max_nodes=args.max_nodes,
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
    if args.ascii:
        timeline = utilization_timeline(
            out["result"], out["cluster"], nbins=args.nbins
        )
        print(render_ascii(timeline, out["cluster"], show_transfers=True))
    for kind, path in sorted(out["paths"].items()):
        print(f"  {kind:6} : {path}")


def _ledger_error_exit(err) -> NoReturn:
    """Unreadable ledger: a usage-class failure (2), never a regression (1)."""
    print(f"error: {err}", file=sys.stderr)
    sys.exit(2)


def _cmd_perf_record(args) -> None:
    from .obs.ledger import (
        LedgerError,
        PerfLedger,
        collect_metrics,
        make_entry,
        write_root_report,
    )

    metrics, cfg = collect_metrics(
        args.scenario,
        n_fact=args.n_fact or None,
        n_gen=args.n_gen or None,
    )
    label = args.label or args.scenario
    ledger = PerfLedger(args.ledger)
    try:
        entry = ledger.append(make_entry(label, metrics, config=cfg,
                                         note=args.note))
    except LedgerError as err:
        _ledger_error_exit(err)
    print(f"perf record [{label}]: {len(metrics)} metrics appended to "
          f"{ledger.path} ({len(ledger.entries())} entries)")
    if args.root_out:
        root = write_root_report(
            label, metrics, config=cfg, path=args.root_out,
            extra={"recorded_at": entry["recorded_at"]},
        )
        print(f"  root report : {root}")


def _cmd_perf_check(args) -> None:
    import json

    from .obs.ledger import (
        LedgerError,
        PerfLedger,
        check_against_ledger,
        collect_metrics,
        render_check_report,
    )

    if args.threshold < 0:
        print(f"error: --threshold must be >= 0, got {args.threshold}",
              file=sys.stderr)
        sys.exit(2)
    metrics, cfg = collect_metrics(
        args.scenario,
        n_fact=args.n_fact or None,
        n_gen=args.n_gen or None,
    )
    label = args.label or args.scenario
    try:
        report = check_against_ledger(
            PerfLedger(args.ledger), label, metrics, config=cfg,
            threshold=args.threshold,
        )
    except LedgerError as err:
        _ledger_error_exit(err)
    if args.format == "json":
        print(json.dumps(
            {
                "label": report.label,
                "baseline_found": report.baseline_found,
                "ok": report.ok,
                "threshold": report.threshold,
                "checks": [
                    {
                        "metric": c.metric,
                        "baseline": c.baseline,
                        "current": c.current,
                        "rel_change": c.rel_change,
                        "gated": c.gated,
                        "regressed": c.regressed,
                    }
                    for c in report.checks
                ],
            },
            indent=2, sort_keys=True,
        ))
    else:
        print(render_check_report(report, verbose=args.verbose))
    if not report.baseline_found:
        if args.require_baseline:
            sys.exit(1)
        return
    if not report.ok:
        sys.exit(1)


def _cmd_obs_series(args) -> None:
    from .evaluate import format_table
    from .obs import read_trace, store_from_records

    store = store_from_records(read_trace(args.trace_file),
                               capacity=args.capacity)
    snapshot = store.snapshot(window=args.window)
    if not snapshot:
        print("no mirrored series in this trace")
        return
    window_label = f"last {args.window}" if args.window > 0 else "all"
    print(f"series store: {len(snapshot)} series ({window_label} points)")
    print(format_table(
        ["series", "count", "mean", "p50", "p95", "p99", "rate", "last"],
        [[key, f"{s['count']:.0f}", f"{s['mean']:.4f}", f"{s['p50']:.4f}",
          f"{s['p95']:.4f}", f"{s['p99']:.4f}", f"{s['rate']:.4f}",
          f"{s['last']:.4f}"]
         for key, s in snapshot.items()],
    ))


def _cmd_obs_slo(args) -> None:
    from .obs import (
        default_rules,
        evaluate_rules,
        read_trace,
        render_verdicts,
        rules_from_json,
        store_from_records,
    )

    if args.rules:
        try:
            rules = rules_from_json(args.rules, is_path=True)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(2)
    else:
        rules = default_rules()
    store = store_from_records(read_trace(args.trace_file))
    verdicts = evaluate_rules(store, rules)
    print(render_verdicts(verdicts))
    if args.strict and any(not v["ok"] for v in verdicts):
        sys.exit(1)


def _obs_schedules(args, bank):
    """Resolve ``--schedules`` against the canned family (exit 2 on typo)."""
    from .faults import canned_schedules

    canned = canned_schedules(bank.n_total, args.iterations, seed=args.seed)
    unknown = [k for k in args.schedules if k not in canned]
    if unknown:
        print(f"error: unknown schedule(s) {unknown}; known: "
              f"{sorted(canned)}", file=sys.stderr)
        sys.exit(2)
    return {key: canned[key] for key in args.schedules}


def _obs_validate_strategies(args) -> None:
    """Exit 2 on unregistered ``--strategies`` names."""
    from .strategies.registry import registered_names

    bad = [s for s in args.strategies if s not in registered_names()]
    if bad:
        print(f"error: unknown strategy(s) {bad}; registered: "
              f"{registered_names()}", file=sys.stderr)
        sys.exit(2)


def _cmd_obs_forensics(args) -> None:
    from .measure import cached_bank
    from .obs.convergence import analyze_convergence, convergence_metrics
    from .obs.forensics import (
        analyze_detector,
        default_configs,
        forensics_metrics,
        render_forensics_table,
        render_resilience_table,
        render_sweep_table,
        sweep_detectors,
        sweep_resilience,
    )
    from .platform import get_scenario

    _obs_validate_strategies(args)
    from .faults.resilience import RESILIENT_BASES

    if args.sweep and args.inner not in RESILIENT_BASES:
        print(f"error: unknown --inner {args.inner!r}; wrappable bases: "
              f"{list(RESILIENT_BASES)}", file=sys.stderr)
        sys.exit(2)
    bank = cached_bank(get_scenario(args.scenario), progress=True)
    schedules = _obs_schedules(args, bank)
    ordered = [schedules[key] for key in sorted(schedules)]

    if args.sweep:
        rows = sweep_detectors(
            bank, ordered, iterations=args.iterations, reps=args.reps,
            base_seed=args.seed, horizon=args.horizon,
        )
        print(f"detector sweep on {bank.label}: {len(rows)} configs x "
              f"{len(ordered)} schedule(s), reps={args.reps}, "
              f"iterations={args.iterations}")
        print(render_sweep_table(rows, top=args.top))
        res_rows = sweep_resilience(
            bank, ordered, inner=args.inner, iterations=args.iterations,
            reps=args.reps, base_seed=args.seed,
        )
        print(f"resilience replay sweep on {bank.label}: "
              f"{len(res_rows)} (window, cooldown) configs of "
              f"Resilient({args.inner}), reps={args.reps}, "
              f"iterations={args.iterations}")
        print(render_resilience_table(res_rows, top=args.top))
        return

    configs = default_configs(cooldown=args.cooldown)
    results = [
        analyze_detector(bank, schedule, config,
                         iterations=args.iterations, reps=args.reps,
                         base_seed=args.seed, horizon=args.horizon)
        for schedule in ordered
        for config in configs
    ]
    print(f"fault forensics on {bank.label}: {len(ordered)} schedule(s) x "
          f"{len(configs)} detector(s), reps={args.reps}, "
          f"iterations={args.iterations}")
    print(render_forensics_table(results))
    if args.out:
        from .obs.forensics import result_to_dict
        from .obs.ledger import write_root_report

        summaries = analyze_convergence(
            bank, args.strategies, iterations=args.iterations,
            reps=args.reps, base_seed=args.seed,
        )
        metrics = forensics_metrics(results)
        metrics.update(convergence_metrics(summaries))
        path = write_root_report(
            label=f"obs-forensics {bank.label}",
            metrics=metrics,
            config={
                "scenario": bank.label,
                "iterations": args.iterations,
                "reps": args.reps,
                "horizon": args.horizon,
                "schedules": sorted(schedules),
                "strategies": list(args.strategies),
            },
            path=args.out,
            extra={"results": [result_to_dict(r) for r in results]},
        )
        print(f"  report : {path}")


def _cmd_obs_convergence(args) -> None:
    from .measure import cached_bank
    from .obs.convergence import analyze_convergence, render_convergence_table
    from .platform import get_scenario

    _obs_validate_strategies(args)
    bank = cached_bank(get_scenario(args.scenario), progress=True)
    summaries = analyze_convergence(
        bank, args.strategies, iterations=args.iterations, reps=args.reps,
        base_seed=args.seed,
    )
    print(f"convergence on {bank.label}: {len(summaries)} strategies, "
          f"reps={args.reps}, iterations={args.iterations} "
          f"(oracle n = {bank.best_action()})")
    print(render_convergence_table(summaries))


def _cmd_obs_dash(args) -> None:
    from pathlib import Path

    from .measure import cached_bank
    from .obs.convergence import analyze_convergence
    from .obs.dashboard import render_dashboard
    from .obs.forensics import (
        analyze_detector,
        default_configs,
        duration_stream,
        fire_detector,
    )
    from .platform import get_scenario

    _obs_validate_strategies(args)
    bank = cached_bank(get_scenario(args.scenario), progress=True)
    schedules = _obs_schedules(args, bank)
    ordered = [schedules[key] for key in sorted(schedules)]
    configs = default_configs(cooldown=args.cooldown)

    summaries = analyze_convergence(
        bank, args.strategies, iterations=args.iterations, reps=args.reps,
        base_seed=args.seed,
    )
    results = []
    alarm_indices = {}
    for schedule in ordered:
        stream = duration_stream(bank, schedule, args.iterations,
                                 rep=0, base_seed=args.seed)
        for config in configs:
            results.append(analyze_detector(
                bank, schedule, config, iterations=args.iterations,
                reps=args.reps, base_seed=args.seed, horizon=args.horizon,
            ))
            alarm_indices[f"{schedule.label}/{config.key()}"] = \
                fire_detector(config, stream)

    store = None
    slo_verdicts = None
    if args.trace:
        from .obs import (
            default_rules,
            evaluate_rules,
            read_trace,
            rules_from_json,
            store_from_records,
        )

        store = store_from_records(read_trace(args.trace))
        rules = (rules_from_json(args.rules, is_path=True) if args.rules
                 else default_rules())
        slo_verdicts = evaluate_rules(store, rules)

    html = render_dashboard(
        title=f"telemetry dashboard: {bank.label}",
        convergence=summaries,
        forensics=results,
        schedules={s.label: s for s in ordered},
        alarm_indices=alarm_indices,
        slo_verdicts=slo_verdicts,
        store=store,
        window=args.window,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(html, encoding="utf-8", newline="\n")
    print(f"dashboard: {len(summaries)} strategies, {len(results)} "
          f"(schedule, detector) lanes -> {out} ({len(html)} bytes)")


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
    schedules = _faults_schedules(args)
    if args.name not in schedules:
        print(f"error: unknown schedule {args.name!r}; known: "
              f"{sorted(schedules)}", file=sys.stderr)
        sys.exit(2)
    schedule = schedules[args.name]
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
        unknown = [k for k in args.schedules if k not in canned]
        if unknown:
            print(f"error: unknown schedule(s) {unknown}; known: "
                  f"{sorted(canned)}", file=sys.stderr)
            sys.exit(2)
        result = run_campaign(
            bank,
            schedules={k: canned[k] for k in args.schedules},
            strategies=args.strategies or None,
            iterations=args.iterations,
            reps=args.reps,
            workers=args.workers,
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

    if args.tenants < 1:
        print(f"error: --tenants must be >= 1, got {args.tenants}",
              file=sys.stderr)
        sys.exit(2)
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}",
              file=sys.stderr)
        sys.exit(2)
    if args.p99_bound <= 0:
        print(f"error: --p99-bound must be positive, got {args.p99_bound}",
              file=sys.stderr)
        sys.exit(2)
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


def _cmd_serve_run(args) -> None:
    import asyncio

    from .serve.service import TuningService, serve_forever

    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}",
              file=sys.stderr)
        sys.exit(2)
    if args.tick_interval <= 0:
        print(f"error: --tick-interval must be positive, got "
              f"{args.tick_interval}", file=sys.stderr)
        sys.exit(2)
    service = TuningService(num_shards=args.shards, base_seed=args.seed)
    print(f"repro serve: JSONL tuning service on "
          f"{args.host}:{args.port} ({args.shards} shard(s), "
          f"tick every {args.tick_interval:g}s) -- Ctrl-C stops")
    try:
        asyncio.run(serve_forever(
            service, host=args.host, port=args.port,
            tick_interval=args.tick_interval))
    except KeyboardInterrupt:
        snap = service.snapshot()
        print(f"\nstopped after {snap['ticks']} tick(s): "
              f"{snap['active_tenants']} live session(s), "
              f"{snap['retired_tenants']} retired")


def _fuzz_validate(args) -> None:
    """Shared `repro fuzz` argument validation (exit 2 on bad input)."""
    from .fuzz import FAMILIES
    from .strategies.registry import registered_names

    families = getattr(args, "families", None)
    if families:
        unknown = [f for f in families if f not in FAMILIES]
        if unknown:
            print(f"error: unknown family(s) {unknown}; known: "
                  f"{list(FAMILIES)}", file=sys.stderr)
            sys.exit(2)
    if args.seed < 0:
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        sys.exit(2)
    if args.bound <= 0:
        print(f"error: --bound must be positive, got {args.bound}",
              file=sys.stderr)
        sys.exit(2)
    if args.iterations < 9:
        print(f"error: --iterations must be >= 9 (fault windows), got "
              f"{args.iterations}", file=sys.stderr)
        sys.exit(2)
    strategies = getattr(args, "strategies", None) or []
    strategy = getattr(args, "strategy", None)
    if strategy is not None:
        strategies = strategies + [strategy]
    bad = [s for s in strategies if s not in registered_names()]
    if bad:
        print(f"error: unknown strategy(s) {bad}; registered: "
              f"{registered_names()}", file=sys.stderr)
        sys.exit(2)


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

    _fuzz_validate(args)
    if args.count < 1:
        print(f"error: --count must be >= 1, got {args.count}",
              file=sys.stderr)
        sys.exit(2)
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        sys.exit(2)

    families = tuple(args.families) if args.families else FAMILIES
    fuzz_cfg = FuzzConfig(iterations=args.iterations)
    corpus = sample_corpus(args.count, args.seed, families=families,
                           config=fuzz_cfg)
    config = PropertyConfig(
        iterations=args.iterations,
        regret_bound=args.bound,
        workers=args.workers,
        strategies=tuple(args.strategies) if args.strategies else None,
        check_workers=not args.no_workers_check,
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
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
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

    _fuzz_validate(args)
    platform = sample_platform(args.index, args.seed)
    config = PropertyConfig(
        iterations=args.iterations,
        regret_bound=args.bound,
        strategies=(args.strategy,),
        check_replay=args.check == "replay",
        check_workers=False,
    )
    outcome = check_platform(
        platform, config,
        check_workers=args.check == "workers-equivalence",
    )
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


def _cmd_predict(args) -> None:
    from .geostat import MaternParams, holdout_experiment

    params = MaternParams(range_=args.range_, nugget=1e-4)
    out = holdout_experiment(
        n_total=args.points, n_missing=args.missing, params=params,
        seed=args.seed,
    )
    print(f"hold-out prediction of {args.missing} of {args.points} points "
          f"(Matern range {args.range_}):")
    print(f"  kriging MSPE : {out['mspe_kriging']:.4f}")
    print(f"  trivial MSPE : {out['mspe_trivial']:.4f}")
    print(f"  95% coverage : {out['coverage95']:.0%}")


def _cmd_bench(args) -> None:
    from .evaluate.bench import DEFAULT_OUT, run_harness_benchmark
    from .platform import SCENARIOS
    from .strategies.registry import registered_names

    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        sys.exit(2)
    keys = list(args.scenarios)
    if keys == ["all"]:
        keys = sorted(SCENARIOS)
    unknown = [k for k in keys if k not in SCENARIOS]
    if unknown:
        print(f"error: unknown scenario(s) {unknown}; valid keys: "
              f"{sorted(SCENARIOS)} or 'all'", file=sys.stderr)
        sys.exit(2)
    bad = [s for s in args.strategies if s not in registered_names()]
    if bad:
        print(f"error: unknown strategy(s) {bad}; registered: "
              f"{registered_names()}", file=sys.stderr)
        sys.exit(2)

    from pathlib import Path

    out = Path(args.out) if args.out else DEFAULT_OUT
    spill = None if args.no_spill else out.parent / "BENCH_durations.json"
    root = Path(args.root_out) if args.root_out else None
    report = run_harness_benchmark(
        scenario_keys=keys,
        strategies=args.strategies,
        iterations=args.iterations,
        reps=args.reps,
        workers=args.workers,
        out_path=out,
        spill_path=spill,
        root_path=root,
        progress=True,
    )
    cache = report["cache"]
    print(f"harness bench: {len(keys)} scenario(s), "
          f"{len(args.strategies)} strategies, reps={args.reps}, "
          f"workers={args.workers}")
    print(f"  serial   : {report['serial_seconds']:.2f} s")
    print(f"  parallel : {report['parallel_seconds']:.2f} s "
          f"(speedup {report['speedup']:.2f}x, warm cache hit rate "
          f"{cache['hit_rate']:.0%})")
    print(f"  identical: {report['identical']}")
    print(f"  report   : {out}")
    if root is not None:
        print(f"  root copy: {root}")
    if not report["identical"]:
        sys.exit(1)


def _cmd_lint(args) -> None:
    from .analysis.cli import main as lint_main

    argv = list(args.paths)
    if args.strict:
        argv.append("--strict")
    if args.write_baseline:
        argv.append("--write-baseline")
    if args.prune_baseline:
        argv.append("--prune-baseline")
    argv.extend(["--format", args.format])
    code = lint_main(argv)
    if code != 0:
        sys.exit(code)


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

    from .obs.ledger import DEFAULT_LEDGER, DEFAULT_THRESHOLD

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the IPDPS 2022 multi-phase adaptation paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table2", help="machine catalog").set_defaults(fn=_cmd_table2)
    sub.add_parser("scenarios", help="the 16 scenarios").set_defaults(fn=_cmd_scenarios)

    p = sub.add_parser("sweep", help="duration-vs-nodes curve (Fig 2/5)")
    p.add_argument("scenario", help="scenario key a..p")
    _add_trace_args(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("compare", help="all strategies on one scenario (Fig 6 panel)")
    p.add_argument("scenario")
    p.add_argument("--reps", type=int, default=10)
    _add_trace_args(p)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("fig6", help="all strategies on all scenarios")
    p.add_argument("--reps", type=int, default=10)
    _add_trace_args(p)
    p.set_defaults(fn=_cmd_fig6)

    p = sub.add_parser("replay", help="step-by-step GP state (Fig 4)")
    p.add_argument("scenario")
    p.add_argument("strategy")
    p.add_argument("--iterations", type=int, nargs="+", default=[5, 8, 20, 100])
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("overhead", help="online strategy overhead (Fig 7)")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--iterations", type=int, default=30)
    _add_trace_args(p)
    p.set_defaults(fn=_cmd_overhead)

    p = sub.add_parser("stats", help="aggregate a JSONL obs trace")
    p.add_argument("trace_file", help="trace written by --trace")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (json: machine-readable aggregate)")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "timeline",
        help="task-level timeline exports (Chrome trace, Paje CSV, HTML)",
    )
    p.add_argument("scenario", nargs="?", default="b", help="scenario key a..p")
    p.add_argument("--n-fact", type=int, default=0,
                   help="factorization node count (default: all nodes)")
    p.add_argument("--n-gen", type=int, default=0,
                   help="generation node count (default: all nodes)")
    p.add_argument("--out", default=str(Path("benchmarks") / "out"),
                   help="output directory for the three artifacts")
    p.add_argument("--nbins", type=int, default=72,
                   help="time bins of the ASCII rendering")
    p.add_argument("--max-nodes", type=int, default=16,
                   help="nodes drawn in the SVG Gantt")
    p.add_argument("--no-ascii", dest="ascii", action="store_false",
                   help="skip the terminal utilization art")
    p.set_defaults(fn=_cmd_timeline)

    p = sub.add_parser("perf", help="cross-run performance ledger")
    perf_sub = p.add_subparsers(dest="perf_command", required=True)

    def _perf_common(pp) -> None:
        pp.add_argument("scenario", nargs="?", default="b",
                        help="scenario key a..p")
        pp.add_argument("--n-fact", type=int, default=0,
                        help="factorization node count (default: all nodes)")
        pp.add_argument("--n-gen", type=int, default=0,
                        help="generation node count (default: all nodes)")
        pp.add_argument("--label", default="",
                        help="ledger label (default: the scenario key)")
        pp.add_argument("--ledger", default=str(DEFAULT_LEDGER),
                        help="ledger JSONL path")

    pp = perf_sub.add_parser(
        "record", help="append the current run's aggregates to the ledger"
    )
    _perf_common(pp)
    pp.add_argument("--note", default="", help="free-form annotation")
    pp.add_argument("--root-out", default="BENCH_timeline.json",
                    help="root-level trajectory artifact ('' disables)")
    pp.set_defaults(fn=_cmd_perf_record)

    pp = perf_sub.add_parser(
        "check", help="gate the current run against the ledger baseline"
    )
    _perf_common(pp)
    pp.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                    help="relative increase tolerated on gated metrics")
    pp.add_argument("--format", choices=("text", "json"), default="text")
    pp.add_argument("--verbose", action="store_true",
                    help="also print non-gated (informational) metrics")
    pp.add_argument("--require-baseline", action="store_true",
                    help="fail (exit 1) when no baseline exists instead of "
                         "warning")
    pp.set_defaults(fn=_cmd_perf_check)

    p = sub.add_parser("faults", help="fault injection & resilience campaigns")
    faults_sub = p.add_subparsers(dest="faults_command", required=True)

    def _faults_common(pp) -> None:
        pp.add_argument("--nodes", type=int, default=8,
                        help="cluster size the canned schedules are sized to")
        pp.add_argument("--iterations", type=int, default=60,
                        help="run length the fault windows scale with")
        pp.add_argument("--seed", type=int, default=0,
                        help="schedule seed (interference jitter streams)")

    pp = faults_sub.add_parser("list", help="canned fault schedules")
    _faults_common(pp)
    pp.set_defaults(fn=_cmd_faults_list)

    pp = faults_sub.add_parser("describe", help="one schedule in detail")
    pp.add_argument("name", help="schedule name (see `repro faults list`)")
    pp.add_argument("--json", action="store_true",
                    help="also print the canonical JSON rendering")
    _faults_common(pp)
    pp.set_defaults(fn=_cmd_faults_describe)

    pp = faults_sub.add_parser(
        "run", help="raw vs resilient campaign on one scenario"
    )
    pp.add_argument("scenario", nargs="?", default="i",
                    help="scenario key a..p")
    pp.add_argument("--schedules", nargs="+",
                    default=["straggler", "crash", "compound"],
                    help="canned schedule names to campaign over")
    pp.add_argument("--strategies", nargs="+", default=[],
                    help="strategy names (default: DC, UCB, "
                         "GP-discontinuous and their Resilient(...) "
                         "wrappers)")
    pp.add_argument("--iterations", type=int, default=60)
    pp.add_argument("--reps", type=int, default=5)
    pp.add_argument("--workers", type=int, default=1)
    pp.add_argument("--seed", type=int, default=0,
                    help="schedule seed (interference jitter streams)")
    pp.add_argument("--out", default="BENCH_faults.json",
                    help="root-level campaign artifact ('' disables)")
    _add_trace_args(pp)
    pp.set_defaults(fn=_cmd_faults_run)

    p = sub.add_parser("serve", help="tuning-as-a-service front end")
    serve_sub = p.add_subparsers(dest="serve_command", required=True)

    pp = serve_sub.add_parser(
        "bench", help="deterministic multi-tenant load generator"
    )
    pp.add_argument("--tenants", type=int, default=500,
                    help="simulated tenant population size")
    pp.add_argument("--shards", type=int, default=4,
                    help="shard workers (the report is byte-identical "
                         "across shard counts)")
    pp.add_argument("--seed", type=int, default=0,
                    help="population seed (tenant mix + client streams)")
    pp.add_argument("--fuzz", type=int, default=4,
                    help="fuzzed platforms mixed into the scenario pool")
    pp.add_argument("--arrival-window", type=int, default=64,
                    help="ticks over which tenant arrivals are spread")
    pp.add_argument("--p99-bound", type=float, default=8.0,
                    help="propose-latency p99 SLO bound in shard ticks")
    pp.add_argument("--out", default="BENCH_serve.json",
                    help="root-level bench artifact ('' disables)")
    pp.add_argument("--quiet", action="store_true",
                    help="suppress progress lines")
    pp.set_defaults(fn=_cmd_serve_bench)

    pp = serve_sub.add_parser(
        "run", help="live JSONL-over-asyncio socket service"
    )
    pp.add_argument("--host", default="127.0.0.1")
    pp.add_argument("--port", type=int, default=8902)
    pp.add_argument("--shards", type=int, default=4,
                    help="shard workers (tenants assigned by stable hash)")
    pp.add_argument("--seed", type=int, default=0,
                    help="base seed folded into per-tenant strategy seeds")
    pp.add_argument("--tick-interval", type=float, default=0.05,
                    help="seconds between shard ticks (batch cadence)")
    pp.set_defaults(fn=_cmd_serve_run)

    p = sub.add_parser("obs", help="telemetry analytics (series, SLO, "
                                   "forensics, convergence, dashboard)")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    pp = obs_sub.add_parser(
        "series", help="windowed time-series aggregates of a trace"
    )
    pp.add_argument("trace_file", help="JSONL trace written by --trace")
    pp.add_argument("--window", type=int, default=0,
                    help="points per series aggregated (0 = all buffered)")
    pp.add_argument("--capacity", type=int, default=512,
                    help="ring-buffer capacity per series")
    pp.set_defaults(fn=_cmd_obs_series)

    pp = obs_sub.add_parser(
        "slo", help="evaluate SLO rules against a trace's series"
    )
    pp.add_argument("trace_file", help="JSONL trace written by --trace")
    pp.add_argument("--rules", default="",
                    help="JSON rules document (default: built-in rules)")
    pp.add_argument("--strict", action="store_true",
                    help="exit 1 when any rule is violated")
    pp.set_defaults(fn=_cmd_obs_slo)

    def _obs_analytics_common(pp) -> None:
        pp.add_argument("scenario", nargs="?", default="b",
                        help="scenario key a..p")
        pp.add_argument("--schedules", nargs="+",
                        default=["crash", "interference"],
                        help="canned fault schedule names")
        pp.add_argument("--strategies", nargs="+",
                        default=["DC", "UCB", "GP-discontinuous"],
                        help="strategy names of the convergence section")
        pp.add_argument("--iterations", type=int, default=60)
        pp.add_argument("--reps", type=int, default=3)
        pp.add_argument("--seed", type=int, default=0,
                        help="base seed (schedules and replay streams)")
        pp.add_argument("--horizon", type=int, default=15,
                        help="iterations after a change point within which "
                             "an alarm still counts as a detection")
        pp.add_argument("--cooldown", type=int, default=8,
                        help="post-alarm suppression of the scored "
                             "detectors")

    pp = obs_sub.add_parser(
        "forensics",
        help="score change detectors against fault ground truth",
    )
    _obs_analytics_common(pp)
    pp.add_argument("--sweep", action="store_true",
                    help="grid both detector families plus the resilience "
                         "(window, cooldown) replay knobs and rank the "
                         "configurations instead of scoring the defaults")
    pp.add_argument("--inner", default="UCB",
                    help="inner strategy of the resilience replay sweep")
    pp.add_argument("--top", type=int, default=0,
                    help="rows of the ranked sweep table (0 = all)")
    pp.add_argument("--out", default="",
                    help="root-level BENCH_forensics.json artifact "
                         "('' disables; includes convergence metrics)")
    pp.set_defaults(fn=_cmd_obs_forensics)

    pp = obs_sub.add_parser(
        "convergence", help="learning-trajectory analytics per strategy"
    )
    _obs_analytics_common(pp)
    pp.set_defaults(fn=_cmd_obs_convergence)

    pp = obs_sub.add_parser(
        "dash", help="unified self-contained HTML dashboard"
    )
    _obs_analytics_common(pp)
    pp.add_argument("--out", default=str(Path("benchmarks") / "out"
                                         / "dashboard.html"),
                    help="output HTML path")
    pp.add_argument("--trace", default="",
                    help="JSONL trace feeding the series + SLO sections")
    pp.add_argument("--rules", default="",
                    help="SLO rules JSON of the --trace sections")
    pp.add_argument("--window", type=int, default=0,
                    help="series window of the --trace sections")
    pp.set_defaults(fn=_cmd_obs_dash)

    p = sub.add_parser(
        "fuzz", help="seeded scenario fuzzing & strategy property tests"
    )
    fuzz_sub = p.add_subparsers(dest="fuzz_command", required=True)

    def _fuzz_common(pp) -> None:
        pp.add_argument("--seed", type=int, default=0,
                        help="corpus root seed (>= 0)")
        pp.add_argument("--iterations", type=int, default=50,
                        help="adaptation iterations per cell (>= 9)")
        pp.add_argument("--bound", type=float, default=0.65,
                        help="regret-ratio bound on adaptive strategies")
        pp.add_argument("--no-shrink", action="store_true",
                        help="skip minimization of failing scenarios")

    pp = fuzz_sub.add_parser(
        "run", help="run every strategy property over a fuzzed corpus"
    )
    _fuzz_common(pp)
    pp.add_argument("--count", type=int, default=24,
                    help="corpus size (scenarios)")
    pp.add_argument("--families", nargs="+", default=[],
                    help="workload families (cholesky, msr; default both)")
    pp.add_argument("--strategies", nargs="+", default=[],
                    help="strategy names (default: every registered one)")
    pp.add_argument("--workers", type=int, default=1,
                    help="harness workers of the main run")
    pp.add_argument("--no-workers-check", action="store_true",
                    help="skip the workers=1 vs 2 equivalence property")
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
    pp.add_argument("index", type=int, help="corpus index of the scenario")
    pp.add_argument("--strategy", required=True,
                    help="registered strategy name")
    pp.add_argument("--check", required=True,
                    choices=("regret-bound", "regret-monotone", "replay",
                             "workers-equivalence"))
    pp.add_argument("--dir", default=str(Path("tests") / "goldens" / "fuzz"),
                    help="output directory of the promoted scenario")
    _fuzz_common(pp)
    pp.set_defaults(fn=_cmd_fuzz_promote)

    p = sub.add_parser("grid", help="2-D gen x fact sweep (Fig 8)")
    p.add_argument("scenario", nargs="?", default="f")
    p.add_argument("--step", type=int, default=2)
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("trace", help="three-iteration timelines (Fig 1)")
    p.add_argument("scenario", nargs="?", default="b")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("predict", help="kriging prediction of held-out points")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--missing", type=int, default=20)
    p.add_argument("--range", dest="range_", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser(
        "bench",
        help="benchmark the parallel+cache harness (BENCH_harness.json)",
    )
    p.add_argument("--scenarios", nargs="+", default=["c", "i", "p"],
                   help="scenario keys a..p, or 'all' for the Figure 5 set")
    p.add_argument("--strategies", nargs="+",
                   default=["DC", "Right-Left", "UCB"])
    p.add_argument("--iterations", type=int, default=40)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--out", default="",
                   help="report path (default benchmarks/out/BENCH_harness.json)")
    p.add_argument("--root-out", default="BENCH_harness.json",
                   help="root-level trajectory copy of the report "
                        "('' disables)")
    p.add_argument("--no-spill", action="store_true",
                   help="do not warm/persist the duration cache on disk")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("lint", help="static analysis (determinism, contracts)")
    p.add_argument("paths", nargs="*",
                   help="files/dirs to analyze (default: src tests benchmarks)")
    p.add_argument("--strict", action="store_true",
                   help="fail on any non-baselined finding")
    p.add_argument("--write-baseline", action="store_true",
                   help="grandfather current findings into the baseline")
    p.add_argument("--prune-baseline", action="store_true",
                   help="drop stale baseline entries and rewrite the file")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("checks", help="simulator consistency checks")
    p.add_argument("scenario", nargs="?", default="b")
    p.add_argument("--n-fact", type=int, default=0)
    p.set_defaults(fn=_cmd_checks)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
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
