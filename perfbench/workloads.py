"""The three benchmark workloads and the layer spans of a traced run.

Each workload function takes a :class:`Context` and runs whole units of
work until ``ctx.seconds`` have passed:

* ``sweep-cold`` -- one scenario sweep at a time (b, c, m, b, ...), and
  never fewer than :data:`SWEEP_MIN_CONFIGS` timed configurations, so
  the pooled per-configuration p90 has ten samples beyond it;
* ``tune-warm`` -- whole cycles of the Figure 6 cells on b, c and m;
* ``serve-mixed`` -- whole passes of the seeded tenant population.

Outputs are checked as they are produced; every check is one attempted
operation and every mismatch or exception one failed operation.
"""

from __future__ import annotations

import hashlib
import re
import traceback
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from .hostspeed import Calibration
from .spans import Recorder, _clock

#: Floor on timed configurations per sweep-cold run (p90 needs 100).
SWEEP_MIN_CONFIGS = 100

#: Seed tag of the serve clients' duration draws.
CLIENT_TAG = 0x5E12


def _span(rec: Optional[Recorder], name: str):
    """A span when tracing, else a no-op context."""
    return rec.span(name) if rec is not None else nullcontext()


def metric_name(name: str) -> str:
    """``Resilient(UCB)`` -> ``Resilient-UCB``: names match [A-Za-z0-9_.-]+."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", name).strip("-")


@dataclass
class Context:
    """Everything one workload run needs, and what it measured."""

    workload: str
    inputs: Dict[str, object]
    expected: Dict[str, object]
    seconds: float
    work_dir: Path
    check_defaults: bool              # seed == DEFAULT_SEED
    rec: Optional[Recorder] = None    # traced run when set
    speed: Optional[Calibration] = None  # untraced run: host calibration
    banks: Dict[str, object] = field(default_factory=dict)
    bank_store: object = None
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    min_ops: int = 0                  # sweep-cold: timed configs floor
    ops: int = 0
    wall: float = 0.0
    #: (unit label, wall s) of each unit of work, for the trace overhead.
    units: List[tuple] = field(default_factory=list)
    op_times: List[float] = field(default_factory=list)
    #: When each op_times sample ended (for the host-speed scale).
    op_ends: List[float] = field(default_factory=list)
    started: float = 0.0              # clock when the timed loop began
    counts: Dict[str, float] = field(default_factory=dict)
    #: tune-warm: first total of each "scenario/strategy/base seed" cell.
    seen_cells: Dict[str, float] = field(default_factory=dict)
    #: serve-mixed: reference proposal digest per tenant.
    serve_digests: Dict[str, str] = field(default_factory=dict)
    #: serve-mixed: ticks from enqueue to answer of every proposal.
    queue_waits: List[float] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        """An exception inside a unit of work: one failed operation."""
        traceback.print_exc()
        self.check(False, what)

    def count(self, name: str, delta: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + delta

    def calibrate(self) -> float:
        """Calibrate the host speed if due; returns the seconds it took."""
        if self.speed is None:
            return 0.0
        spent = self.speed.spent
        self.speed.tick()
        return self.speed.spent - spent


# -- sweep-cold ----------------------------------------------------------------------


def _banks_equal(a, b) -> bool:
    return (tuple(a.actions) == tuple(b.actions)
            and all(np.array_equal(a.samples[n], b.samples[n])
                    for n in a.actions)
            and a.lp == b.lp and a.true_means == b.true_means)


def trace_common_layers(rec: Recorder, ctx: Context) -> None:
    """Spans every traced workload carries, so a bypass reads 0 measured.

    Both simulation engines, GP fits and predictions, and bank
    resamples: tune-warm and serve-mixed must show no engine runs, and
    sweep-cold no GP fits.
    """
    from repro.gp.regression import GaussianProcess
    from repro.measure.bank import MeasurementBank
    from repro.runtime.simfast import FastSimulator
    from repro.runtime.simulator import Simulator

    def engine_ran(args, result) -> None:
        stats = getattr(args[0], "last_run_stats", {})
        ctx.count("runtime.configs")
        ctx.count("runtime.tasks", result.task_count)
        ctx.count("runtime.transfers", result.transfer_count)
        ctx.count("runtime.wave_tasks", stats.get("wave_tasks", 0))
        ctx.count("runtime.vector_tasks", stats.get("vector_tasks", 0))

    rec.patch(FastSimulator, "run_plan", "runtime.engine", engine_ran)
    rec.patch(Simulator, "run", "runtime.engine", engine_ran)
    rec.patch(MeasurementBank, "resample", "measure.resample")
    rec.patch(GaussianProcess, "fit", "gp.fit")
    rec.patch(GaussianProcess, "predict", "gp.predict")


def _trace_sweep_layers(rec: Recorder, ctx: Context) -> None:
    from repro.distribution.lp_bound import LPBoundCalculator
    from repro.evaluate.cache import DurationCache
    from repro.measure import batch
    from repro.measure.noisemodel import NoiseModel
    from repro.platform.scenarios import Scenario

    def graph_built(args, result) -> None:
        ctx.count("geostat.tasks", len(result[0].tasks))

    rec.patch(Scenario, "build_cluster", "platform.build_cluster")
    rec.patch(batch.ScenarioBatch, "__init__", "measure.batch_init")
    rec.patch(batch, "build_iteration_parts", "geostat.graph_build",
              graph_built)
    rec.patch(batch, "compile_template", "runtime.compile")
    rec.patch(batch.ScenarioBatch, "plan", "runtime.bind")
    rec.patch(batch, "generation_distribution", "distribution.place")
    rec.patch(batch, "factorization_distribution", "distribution.place")
    rec.patch(LPBoundCalculator, "iteration", "distribution.lp")
    rec.patch(NoiseModel, "augment", "measure.noise")
    rec.patch(DurationCache, "spill", "evaluate.cache_spill")
    rec.patch(DurationCache, "load", "evaluate.cache_load")


def sweep_cold(ctx: Context) -> None:
    """Cold sweeps of b, c, m from a fresh DurationCache, then spill/reload."""
    from repro.evaluate.cache import DurationCache
    from repro.measure import batch
    from repro.measure.sweep import sweep_scenario
    from repro.platform.scenarios import get_scenario

    rec = ctx.rec
    inputs = ctx.inputs
    keys: List[str] = list(inputs["scenarios"])  # type: ignore[arg-type]
    makespans = ctx.expected["makespans"]
    seed = int(inputs["augment_seed"])  # type: ignore[arg-type]
    spill_path = ctx.work_dir / f"spill-{ctx.workload}.json"
    caches: List[DurationCache] = []

    measure = batch.ScenarioBatch.measure
    times = ctx.op_times

    def timed_measure(self, *args, **kwargs):
        start = _clock()
        sid = rec.open("measure.config") if rec is not None else -1
        try:
            return measure(self, *args, **kwargs)
        finally:
            if rec is not None:
                rec.close(sid)
            end = _clock()
            times.append(end - start)
            ctx.op_ends.append(end)
            ctx.calibrate()

    batch.ScenarioBatch.measure = timed_measure
    if rec is not None:
        _trace_sweep_layers(rec, ctx)
    try:
        start = ctx.started = _clock()
        swept = 0
        while True:
            key = keys[swept % len(keys)]
            if swept % len(keys) == 0:  # a new pass starts from nothing
                cache = DurationCache()
                caches.append(cache)
                banks: Dict[str, object] = {}
            try:
                unit_start = _clock()
                with _span(rec, "measure.sweep"):
                    bank = sweep_scenario(get_scenario(key), seed=seed,
                                          cache=cache)
                ctx.units.append((key, _clock() - unit_start))
                banks[key] = bank
                ctx.ops += len(bank.actions)
                want = makespans[key]
                ctx.check(sorted(want) == sorted(str(n) for n in bank.actions),
                          f"{key}: swept actions differ from expected")
                for n in bank.actions:
                    ctx.check(bank.true_means[n] == want.get(str(n)),
                              f"{key} n={n}: makespan {bank.true_means[n]!r}"
                              f" != expected {want.get(str(n))!r}")
            except Exception:
                ctx.fail(f"sweep of {key} raised")
            swept += 1
            if swept % len(keys) == 0:
                _spill_and_rebuild(ctx, cache, caches, banks, spill_path,
                                   swept // len(keys) - 1, seed)
            ctx.wall = _clock() - start
            if ctx.wall >= ctx.seconds and (
                    len(times) >= ctx.min_ops or ctx.failed):
                break
    finally:
        batch.ScenarioBatch.measure = measure
    hits = sum(c.hits for c in caches)
    misses = sum(c.misses for c in caches)
    ctx.count("evaluate.cache.hits", hits)
    ctx.count("evaluate.cache.lookups", hits + misses)


def _spill_and_rebuild(ctx, cache, caches, banks, path, pass_index, seed):
    """Spill the pass's cache, reload it, rebuild one bank from hits only."""
    from repro.evaluate.cache import DurationCache
    from repro.measure.sweep import sweep_scenario
    from repro.platform.scenarios import get_scenario

    rebuild = ctx.inputs["rebuild"]
    key = rebuild[pass_index % len(rebuild)]
    try:
        cache.spill(path)
        reloaded = DurationCache()
        caches.append(reloaded)
        loaded = reloaded.load(path)
        ctx.check(loaded == len(cache), f"reloaded {loaded} of {len(cache)}")
        bank = sweep_scenario(get_scenario(key), seed=seed, cache=reloaded)
        ctx.check(reloaded.misses == 0, f"rebuild of {key} missed the cache")
        ctx.check(_banks_equal(bank, banks[key]),
                  f"bank {key} rebuilt from the spill differs")
    except Exception:
        ctx.fail(f"spill/reload/rebuild of {key} raised")


def reference_ratio(ctx: Context) -> None:
    """Reference ``Simulator.run`` over ``FastSimulator.run``, same graphs."""
    from repro.geostat import IterationPlan, build_iteration_graph
    from repro.measure.sweep import scenario_actions
    from repro.platform.scenarios import get_scenario
    from repro.runtime.simfast import FastSimulator
    from repro.runtime.simulator import Simulator
    from repro.workload import Workload

    ref_s = fast_s = 0.0
    configs = 0
    sample: Dict[str, List[int]] = ctx.inputs["reference_sample"]  # type: ignore
    for key in ctx.inputs["scenarios"]:  # type: ignore[union-attr]
        scenario = get_scenario(key)
        cluster = scenario.build_cluster()
        workload = Workload.from_name(scenario.workload)
        actions = scenario_actions(scenario, workload)
        for index in sample[key]:
            n = actions[index % len(actions)]
            graph = build_iteration_graph(
                cluster, workload,
                IterationPlan(n_fact=n, n_gen=len(cluster)))
            want = ctx.expected["makespans"][key][str(n)]
            start = _clock()
            ref = Simulator(cluster).run(graph).makespan
            mid = _clock()
            fast = FastSimulator(cluster).run(graph).makespan
            fast_s += _clock() - mid
            ref_s += mid - start
            configs += 1
            ctx.check(ref == want and fast == want,
                      f"{key} n={n}: engines disagree ({ref!r}, {fast!r})")
    ctx.counts["runtime.reference_ratio"] = ref_s / fast_s
    ctx.counts["runtime.reference_configs"] = float(configs)


# -- tune-warm -----------------------------------------------------------------------


def instrument_strategy(strategy, rec: Optional[Recorder],
                        ctx: Optional[Context]):
    """Time ``propose`` and ``observe`` of one strategy instance.

    Traced, each call is a ``strategies.<name>.<call>`` span.  Untraced,
    each propose + observe pair adds its summed wall time to
    ``ctx.op_times`` (the Figure 7 per-iteration overhead).
    """
    if rec is not None:
        name = metric_name(strategy.name)
        for call in ("propose", "observe"):
            setattr(strategy, call, rec.timed(getattr(strategy, call),
                                              f"strategies.{name}.{call}"))
        return strategy
    propose, observe = strategy.propose, strategy.observe
    proposing = [0.0]

    def timed_propose():
        start = _clock()
        try:
            return propose()
        finally:
            proposing[0] = _clock() - start

    def timed_observe(n, duration):
        start = _clock()
        observe(n, duration)
        end = _clock()
        ctx.op_times.append(proposing[0] + end - start)
        ctx.op_ends.append(end)

    strategy.propose = timed_propose
    strategy.observe = timed_observe
    return strategy


def _cell_totals(evaluation, strategies) -> Dict[str, float]:
    totals = {"All-nodes": evaluation.all_nodes_mean,
              "Oracle": evaluation.oracle_mean}
    for name in strategies:
        totals[name] = evaluation.summary(name).mean_total
    return totals


def tune_warm(ctx: Context) -> None:
    """Figure 6 cells on the warm b, c, m banks via evaluate_scenario."""
    from repro.evaluate import parallel
    from repro.evaluate.runner import evaluate_scenario

    rec = ctx.rec
    inputs = ctx.inputs
    keys: List[str] = list(inputs["scenarios"])  # type: ignore[arg-type]
    strategies: List[str] = list(inputs["strategies"])  # type: ignore
    iterations = int(inputs["iterations"])  # type: ignore[arg-type]
    base_seeds: List[int] = list(inputs["base_seeds"])  # type: ignore
    expected = ctx.expected["tune_totals"] if ctx.check_defaults else None
    seen = ctx.seen_cells

    build = parallel.build_cell_strategy

    def instrumented_build(cell, bank, base_seed=0):
        ctx.calibrate()
        return instrument_strategy(build(cell, bank, base_seed), rec, ctx)

    parallel.build_cell_strategy = instrumented_build
    if rec is not None:
        rec.patch(parallel, "execute_cell", "evaluate.cell")
    try:
        start = ctx.started = _clock()
        cycle = 0
        while True:
            unit_start = _clock()
            base_seed = base_seeds[cycle % len(base_seeds)]
            for key in keys:
                try:
                    with _span(rec, "evaluate.scenario"):
                        evaluation = evaluate_scenario(
                            ctx.banks[key], strategies,
                            iterations=iterations, reps=1,
                            base_seed=base_seed, workers=1)
                except Exception:
                    ctx.fail(f"evaluate_scenario({key}) raised")
                    continue
                totals = _cell_totals(evaluation, strategies)
                ctx.ops += len(totals) * iterations
                for name, total in totals.items():
                    cell = f"{key}/{name}/{base_seed}"
                    want = (expected or {}).get(cell, seen.get(cell))
                    seen.setdefault(cell, total)
                    if want is not None:
                        ctx.check(total == want,
                                  f"cell {cell}: total {total!r} != {want!r}")
            cycle += 1
            ctx.units.append(("cycle", _clock() - unit_start))
            ctx.wall = _clock() - start
            if ctx.wall >= ctx.seconds:
                break
    finally:
        parallel.build_cell_strategy = build


def replay_cells(ctx: Context) -> None:
    """Re-execute sampled cells and compare with the timed run's totals."""
    from repro.evaluate.parallel import EvalCell, execute_cell

    base_seed = ctx.inputs["base_seeds"][0]  # type: ignore[index]
    seen = ctx.seen_cells
    for key, name in ctx.inputs["replay"]:  # type: ignore[union-attr]
        bank = ctx.banks[key]
        try:
            result = execute_cell(EvalCell(bank.label, name, 0), bank,
                                  int(ctx.inputs["iterations"]),  # type: ignore
                                  base_seed=base_seed)
        except Exception:
            ctx.fail(f"replay of {key}/{name} raised")
            continue
        want = seen.get(f"{key}/{name}/{base_seed}")
        ctx.check(result.total == want,
                  f"replay {key}/{name}: {result.total!r} != {want!r}")


# -- serve-mixed ---------------------------------------------------------------------


class _Client:
    """One closed-loop tenant: waits for each proposal before replying."""

    def __init__(self, spec: Dict[str, object], bank, base_seed: int) -> None:
        self.spec = spec
        self.tenant = str(spec["tenant"])
        self.bank = bank
        self.rng = np.random.default_rng(
            (base_seed, CLIENT_TAG, zlib.crc32(self.tenant.encode()), 1))
        self.rounds_left = int(spec["rounds"])  # type: ignore[arg-type]
        self.proposals: List[int] = []
        self.goodbye = False

    def digest(self) -> str:
        text = ",".join(str(n) for n in self.proposals)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_population(ctx: Context, tenants: List[Dict[str, object]],
                   shards: int, base_seed: int,
                   timed: bool) -> Dict[str, object]:
    """Drive ``tenants`` through a fresh in-process TuningService.

    Every request is rendered to its wire line and handed to
    ``handle_line``; every tick response is rendered and parsed back.
    Returns per-tenant digests of the proposal sequences, the request
    count and the service (for its sessions' tick latencies).
    """
    from repro.serve import protocol
    from repro.serve.service import TuningService

    service = TuningService(num_shards=shards, base_seed=base_seed,
                            bank_store=ctx.bank_store)
    clients = {str(t["tenant"]): _Client(t, ctx.banks[str(t["scenario"])],
                                         base_seed) for t in tenants}
    arrivals: Dict[int, List[_Client]] = {}
    for client in clients.values():
        arrivals.setdefault(int(client.spec["arrival"]), []).append(client)
    sent_at: Dict[str, float] = {}
    requests = 0
    errors = 0

    def send(message: Dict[str, object]) -> None:
        nonlocal requests, errors
        if message["kind"] == "propose":
            sent_at[str(message["tenant"])] = _clock()
        reply = service.handle_line(protocol.render(message))
        requests += 1
        if reply is not None and protocol.parse_response(reply)["kind"] == "error":
            errors += 1

    arrived = 0
    tick = 0
    while arrived < len(clients) or service.pending():
        if tick > 100_000:
            raise RuntimeError("serve population did not drain")
        for client in sorted(arrivals.get(tick, ()), key=lambda c: c.tenant):
            send(protocol.hello(client.tenant, str(client.spec["strategy"]),
                                seed=0, scenario=str(client.spec["scenario"])))
            actions = client.bank.actions
            for _ in range(int(client.spec["warm"])):  # type: ignore[arg-type]
                n = int(actions[int(client.rng.integers(len(actions)))])
                send(protocol.observe(client.tenant, n,
                                      client.bank.resample(n, client.rng)))
            send(protocol.propose(client.tenant))
            arrived += 1
        responses = service.tick()
        received = _clock()
        for response in responses:
            message = protocol.parse_response(protocol.render(response))
            kind = message["kind"]
            if kind == "error":
                errors += 1
                continue
            client = clients[str(message["tenant"])]
            if kind == "goodbye":
                client.goodbye = True
            if kind != "proposal":
                continue
            n = int(message["n"])
            if timed:
                ctx.op_times.append(received - sent_at.pop(client.tenant))
                ctx.op_ends.append(received)
            client.proposals.append(n)
            if client.rounds_left <= 0:
                send(protocol.bye(client.tenant))
                continue
            client.rounds_left -= 1
            send(protocol.observe(client.tenant, n,
                                  client.bank.resample(n, client.rng)))
            send(protocol.propose(client.tenant))
        paused = ctx.calibrate()
        if paused:  # calibration is no part of any request's latency
            for tenant in sent_at:
                sent_at[tenant] += paused
        tick += 1
    return {
        "digests": {t: c.digest() for t, c in clients.items()},
        "closed": sum(c.goodbye for c in clients.values()),
        "requests": requests,
        "errors": errors,
        "service": service,
    }


def _trace_serve_layers(rec: Recorder) -> None:
    from repro.serve import protocol, session
    from repro.serve.service import TuningService

    make = session.make_strategy

    def instrumented_make(name, space, seed=0):
        return instrument_strategy(make(name, space, seed=seed), rec, None)

    rec.replace(session, "make_strategy", instrumented_make)
    rec.patch(protocol, "parse_request", "serve.parse")
    rec.patch(protocol, "parse_response", "serve.parse_response")
    rec.patch(protocol, "render", "serve.render")
    rec.patch(TuningService, "handle_line", "serve.handle")
    rec.patch(TuningService, "tick", "serve.tick")


def serve_mixed(ctx: Context) -> None:
    """Closed-loop tenant passes against a 2-shard in-process service."""
    rec = ctx.rec
    inputs = ctx.inputs
    tenants: List[Dict[str, object]] = inputs["tenants"]  # type: ignore
    shards = int(inputs["shards"])  # type: ignore[arg-type]
    base_seed = int(inputs["base_seed"])  # type: ignore[arg-type]
    expected = ctx.expected["serve_digests"] if ctx.check_defaults else None
    store = ctx.bank_store
    hits0, misses0 = store.hits, store.misses
    if rec is not None:
        _trace_serve_layers(rec)
    start = ctx.started = _clock()
    while True:
        try:
            unit_start = _clock()
            with _span(rec, "serve.pass"):
                out = run_population(ctx, tenants, shards, base_seed, True)
            ctx.units.append(("pass", _clock() - unit_start))
        except Exception:
            ctx.fail("serve pass raised")
            break
        ctx.ops += out["requests"]
        ctx.attempted += out["requests"]
        ctx.failed += out["errors"]
        ctx.count("serve.errors", out["errors"])
        ctx.check(out["closed"] == len(tenants),
                  f"{len(tenants) - out['closed']} tenant(s) never "
                  "got their goodbye")
        if expected is None:
            expected = out["digests"]  # later passes must repeat it
        else:
            for tenant, digest in out["digests"].items():
                ctx.check(digest == expected.get(tenant),
                          f"tenant {tenant}: proposal digest {digest} "
                          f"!= {expected.get(tenant)}")
        for sess in out["service"].retired.values():
            ctx.queue_waits.extend(sess.propose_latencies)
        ctx.wall = _clock() - start
        if ctx.wall >= ctx.seconds:
            break
    ctx.count("serve.bank_store.hits", store.hits - hits0)
    ctx.count("serve.bank_store.lookups",
              store.hits - hits0 + store.misses - misses0)
    ctx.serve_digests = expected or {}


def replay_tenants(ctx: Context) -> None:
    """Replay sampled tenants alone on one shard; digests must match."""
    digests = ctx.serve_digests
    by_id = {str(t["tenant"]): t for t in ctx.inputs["tenants"]}  # type: ignore
    for tenant in ctx.inputs["replay"]:  # type: ignore[union-attr]
        try:
            out = run_population(ctx, [by_id[tenant]], 1,
                                 int(ctx.inputs["base_seed"]),  # type: ignore
                                 False)
        except Exception:
            ctx.fail(f"replay of tenant {tenant} raised")
            continue
        got = out["digests"][tenant]
        ctx.check(got == digests.get(tenant),
                  f"replayed tenant {tenant}: {got} != {digests.get(tenant)}")


WORKLOAD_RUNNERS: Dict[str, Callable[[Context], None]] = {
    "sweep-cold": sweep_cold,
    "tune-warm": tune_warm,
    "serve-mixed": serve_mixed,
}

#: Checks made after the timed loop (outside every timing).
AFTER_RUN: Dict[str, Callable[[Context], None]] = {
    "tune-warm": replay_cells,
    "serve-mixed": replay_tenants,
}
