"""Deterministic load generator: hundreds of tenants, one seeded stream.

``repro serve bench`` simulates a seeded population of concurrent
tenants -- drawn from the locked a..p scenario table plus fuzzed
platforms -- against an in-process :class:`TuningService` on tick
clocks, and writes the root ``BENCH_serve.json`` artifact.

Every quantity in the report is a pure function of ``(seed, tenants,
...)`` and *provably independent of the shard count*: each simulated
client owns its own rng stream (seeded by tenant id under
:data:`~repro.serve.session.SERVE_TAG`), reacts only to its own
responses, and the report aggregates per-tenant stats in sorted-tenant
order.  CI re-runs the bench twice and at shard counts 1 vs 4 and
``cmp``s the bytes.

Messages take the full wire round trip (constructor -> canonical JSONL
-> :func:`~repro.serve.protocol.parse_request`) so the bench also pins
the protocol encoding.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..measure.bank import MeasurementBank
from ..obs.sink import write_root_report
from ..obs.stats import quantile
from . import protocol
from .service import BankStore, TuningService
from .session import SERVE_TAG

#: Default bound on the per-tenant propose p99 latency, in shard ticks:
#: the absolute SLO ``serve.propose_p99_ticks`` must satisfy
#: (``repro serve bench`` exits non-zero otherwise).
SERVE_P99_BOUND = 8.0

#: Report unit of each bench metric (``serve.banks.*`` share one entry).
METRIC_UNITS = {
    "serve.tenants": "count",
    "serve.proposes": "count",
    "serve.observes": "count",
    "serve.ticks": "ticks",
    "serve.propose_p50_ticks": "ticks",
    "serve.propose_p99_ticks": "ticks",
    "serve.propose_max_ticks": "ticks",
    "serve.observe_p99_ticks": "ticks",
    "serve.throughput_per_tick": "1/tick",
    "serve.mean_regret": "sim_s",
    "serve.slo_failures": "count",
    "serve.errors": "count",
    "serve.banks": "count",
}

#: Weighted strategy mix of the simulated population: mostly the cheap
#: heuristics/bandits a live fleet would run, a thin tail of the GP
#: family (each GP propose refits a posterior, so an even split would
#: dominate bench wall time without changing coverage).
DEFAULT_STRATEGY_MIX: Tuple[Tuple[str, int], ...] = (
    ("DC", 5),
    ("Right-Left", 4),
    ("Brent", 4),
    ("UCB", 6),
    ("UCB-struct", 4),
    ("SANN", 2),
    ("StochasticApprox", 2),
    ("Resilient(UCB)", 2),
    ("GP-UCB", 1),
    ("GP-discontinuous", 1),
)

@dataclass(frozen=True)
class TenantSpec:
    """One simulated tenant of the load generator (pure data)."""

    tenant_id: str
    source: str          # "table" | "fuzz"
    scenario_key: str    # a..p, or the fuzzed platform's fz#### key
    strategy: str
    arrival: int         # tick the tenant connects at
    warm: int            # warm-start observation backlog sent on hello
    iterations: int      # live propose/observe rounds after warm-up


def sample_tenants(
    count: int,
    seed: int = 0,
    fuzz_count: int = 4,
    arrival_window: int = 64,
    warm_max: int = 24,
    iterations_range: Tuple[int, int] = (8, 24),
    strategy_mix: Sequence[Tuple[str, int]] = DEFAULT_STRATEGY_MIX,
) -> List[TenantSpec]:
    """Seeded tenant population over the scenario table + fuzz corpus.

    A pure function of its arguments: tenant ``t0042`` gets the same
    scenario, strategy, arrival tick, warm backlog and round count on
    every run.  Roughly one tenant in five exercises a fuzzed platform
    (when ``fuzz_count > 0``); the rest draw uniformly from a..p.
    """
    from ..platform.scenarios import all_scenarios

    rng = np.random.default_rng((seed, SERVE_TAG, 0))
    table_keys = [s.key for s in all_scenarios()]
    fuzz_keys = []
    if fuzz_count > 0:
        from ..fuzz.platforms import sample_corpus

        fuzz_keys = [p.scenario.key for p in sample_corpus(fuzz_count,
                                                           root_seed=seed)]
    names = [name for name, weight in strategy_mix for _ in range(weight)]
    lo, hi = iterations_range
    specs: List[TenantSpec] = []
    for index in range(count):
        use_fuzz = bool(fuzz_keys) and int(rng.integers(5)) == 0
        if use_fuzz:
            key = fuzz_keys[int(rng.integers(len(fuzz_keys)))]
            source = "fuzz"
        else:
            key = table_keys[int(rng.integers(len(table_keys)))]
            source = "table"
        specs.append(TenantSpec(
            tenant_id=f"t{index:04d}",
            source=source,
            scenario_key=key,
            strategy=names[int(rng.integers(len(names)))],
            arrival=int(rng.integers(arrival_window)),
            warm=int(rng.integers(warm_max + 1)),
            iterations=int(rng.integers(lo, hi + 1)),
        ))
    return specs


def latency_verdicts(latencies: Sequence[float],
                     p99_bound: float = SERVE_P99_BOUND
                     ) -> List[Dict[str, object]]:
    """The bench's three checks on the propose-latency stream.

    A p99 ceiling, a mean ceiling at half the bound, and a budget of at
    most 64 points above the bound (a 1%-ish tail that does not fail
    the run).
    """
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    over = sum(1 for v in latencies if v > p99_bound)
    checks = (
        ("serve-propose-p99", quantile(latencies, 0.99), p99_bound),
        ("serve-propose-mean", mean, p99_bound / 2.0),
        ("serve-latency-burn", float(over), 64.0),
    )
    return [{"rule": rule, "observed": float(observed),
             "threshold": float(threshold), "ok": observed <= threshold}
            for rule, observed, threshold in checks]


class _Client:
    """One simulated tenant's client half: its own rng, its own bank."""

    def __init__(self, spec: TenantSpec, bank: MeasurementBank,
                 base_seed: int) -> None:
        self.spec = spec
        self.bank = bank
        self.rng = np.random.default_rng(
            (base_seed, SERVE_TAG, zlib.crc32(spec.tenant_id.encode()), 1))
        means = bank.true_means or {n: bank.mean(n) for n in bank.actions}
        self.means = {int(n): float(v) for n, v in means.items()}
        self.best = min(self.means.values())
        self.rounds_left = spec.iterations
        self.regret = 0.0
        self.done = False

    def draw(self, n: int) -> float:
        """One simulated duration for configuration ``n``."""
        return self.bank.resample(n, self.rng)

    def on_proposal(self, n: int) -> List[Dict[str, object]]:
        """React to a proposal: measure, then observe+propose or bye."""
        tenant = self.spec.tenant_id
        self.regret += self.means[int(n)] - self.best
        if self.rounds_left <= 0:
            self.done = True
            return [protocol.bye(tenant)]
        self.rounds_left -= 1
        return [protocol.observe(tenant, n, self.draw(n)),
                protocol.propose(tenant)]


def _materialize_banks(
    specs: Sequence[TenantSpec],
    bank_store: BankStore,
    seed: int,
    fuzz_count: int,
) -> Dict[str, MeasurementBank]:
    """Bank per scenario key, registered in the shared store.

    Table banks go through ``cached_bank`` with the store's shared
    :class:`DurationCache`; fuzzed banks are materialized once per
    platform and keyed by the platform's content fingerprint.
    """
    from ..platform.scenarios import SCENARIOS

    banks: Dict[str, MeasurementBank] = {}
    fuzz_platforms = {}
    if any(spec.source == "fuzz" for spec in specs):
        from ..fuzz.platforms import sample_corpus

        fuzz_platforms = {p.scenario.key: p
                          for p in sample_corpus(fuzz_count, root_seed=seed)}
    for key in sorted({spec.scenario_key for spec in specs}):
        if key in SCENARIOS:
            banks[key] = bank_store.bank_for_scenario(SCENARIOS[key])
        else:
            platform = fuzz_platforms[key]
            fingerprint = platform.fingerprint()
            bank = bank_store.get(fingerprint)
            if bank is None:
                from ..fuzz.properties import build_bank

                bank = build_bank(platform)
                bank_store.put(fingerprint, bank)
            banks[key] = bank
    return banks


def run_bench(
    tenants: int = 500,
    shards: int = 4,
    seed: int = 0,
    fuzz_count: int = 4,
    arrival_window: int = 64,
    p99_bound: float = SERVE_P99_BOUND,
    max_ticks: int = 50_000,
    bank_store: Optional[BankStore] = None,
    progress=None,
) -> Dict[str, object]:
    """Drive a seeded tenant population through an in-process service.

    Returns the report body (metrics + config + extras); callers
    persist it with :func:`write_serve_report`.  ``progress`` (a
    callable taking a string) receives coarse phase updates.
    """
    if tenants < 1:
        raise ValueError("tenants must be >= 1")
    specs = sample_tenants(tenants, seed=seed, fuzz_count=fuzz_count,
                           arrival_window=arrival_window)
    service = TuningService(
        num_shards=shards, base_seed=seed,
        bank_store=bank_store if bank_store is not None else BankStore(),
    )
    if progress:
        progress(f"materializing banks for {tenants} tenants")
    banks = _materialize_banks(specs, service.bank_store, seed, fuzz_count)
    clients = {spec.tenant_id: _Client(spec, banks[spec.scenario_key], seed)
               for spec in specs}

    def submit(message: Dict[str, object]) -> None:
        """Full wire round trip; a refused request counts in ``errors``."""
        service.handle_line(protocol.render(message))

    arrivals: Dict[int, List[TenantSpec]] = {}
    for spec in specs:
        arrivals.setdefault(spec.arrival, []).append(spec)
    if progress:
        progress(f"serving {tenants} tenants on {shards} shard(s)")
    arrived = 0
    tick = 0
    while arrived < len(specs) or service.pending():
        if tick >= max_ticks:
            raise RuntimeError(f"bench did not drain in {max_ticks} ticks")
        for spec in sorted(arrivals.get(tick, ()),
                           key=lambda s: s.tenant_id):
            client = clients[spec.tenant_id]
            if spec.source == "table":
                submit(protocol.hello(spec.tenant_id, spec.strategy,
                                      seed=0, scenario=spec.scenario_key))
            else:
                space = client.bank.action_space()
                submit(protocol.hello(
                    spec.tenant_id, spec.strategy, seed=0,
                    space={"actions": [int(a) for a in space.actions],
                           "group_boundaries":
                               [int(b) for b in space.group_boundaries]}))
            actions = client.bank.actions
            for _ in range(spec.warm):
                n = int(actions[int(client.rng.integers(len(actions)))])
                submit(protocol.observe(spec.tenant_id, n, client.draw(n)))
            submit(protocol.propose(spec.tenant_id))
            arrived += 1
        for response in service.tick():
            if response["kind"] != "proposal":
                continue
            client = clients[str(response["tenant"])]
            for message in client.on_proposal(int(response["n"])):
                submit(message)
        tick += 1

    # -- aggregation (sorted-tenant order: shard-layout independent) ---------------
    sessions = service.retired
    propose_latencies: List[float] = []
    observe_latencies: List[float] = []
    per_strategy: Dict[str, Dict[str, float]] = {}
    total_regret = 0.0
    total_proposes = 0
    total_observes = 0
    for tenant_id in sorted(sessions):
        session = sessions[tenant_id]
        client = clients[tenant_id]
        propose_latencies.extend(float(v)
                                 for v in session.propose_latencies)
        observe_latencies.extend(float(v)
                                 for v in session.observe_latencies)
        total_proposes += session.proposes
        total_observes += session.observes
        total_regret += client.regret
        row = per_strategy.setdefault(
            client.spec.strategy,
            {"tenants": 0.0, "proposes": 0.0, "regret": 0.0})
        row["tenants"] += 1.0
        row["proposes"] += float(session.proposes)
        row["regret"] += client.regret

    verdicts = latency_verdicts(propose_latencies, p99_bound)
    slo_failures = sum(1 for v in verdicts if not v["ok"])
    p99 = quantile(propose_latencies, 0.99)
    ticks = service.ticks
    metrics: Dict[str, float] = {
        "serve.tenants": float(len(sessions)),
        "serve.proposes": float(total_proposes),
        "serve.observes": float(total_observes),
        "serve.ticks": float(ticks),
        "serve.propose_p50_ticks": quantile(propose_latencies, 0.50),
        "serve.propose_p99_ticks": p99,
        "serve.propose_max_ticks": (max(propose_latencies)
                                    if propose_latencies else 0.0),
        "serve.observe_p99_ticks": quantile(observe_latencies, 0.99),
        "serve.throughput_per_tick": (
            (total_proposes + total_observes) / ticks if ticks else 0.0),
        "serve.mean_regret": (total_regret / len(sessions)
                              if sessions else 0.0),
        "serve.slo_failures": float(slo_failures),
        "serve.errors": float(service.errors),
    }
    # Bank-registry hits/misses are a pure function of the tenant
    # population, so they belong in the byte-identical report.
    for key, value in service.bank_store.stats().items():
        metrics[f"serve.banks.{key}"] = value
    ok = (p99 <= p99_bound and slo_failures == 0
          and len(sessions) == len(specs) and metrics["serve.errors"] == 0)
    report: Dict[str, object] = {
        "label": "serve-bench",
        # The shard count is deliberately absent: the report is a pure
        # function of the tenant population, and CI proves it by
        # regenerating at shard counts 1 and 4 and comparing bytes.
        "config": {
            "tenants": tenants,
            "seed": seed,
            "fuzz_count": fuzz_count,
            "arrival_window": arrival_window,
            "p99_bound": p99_bound,
            "schema": protocol.SERVE_SCHEMA_VERSION,
        },
        "metrics": metrics,
        "ok": ok,
        "slo": verdicts,
        "per_strategy": {
            name: {
                "tenants": row["tenants"],
                "proposes": row["proposes"],
                "mean_regret": row["regret"] / row["tenants"],
            }
            for name, row in sorted(per_strategy.items())
        },
    }
    return report


def write_serve_report(report: Dict[str, object],
                       path: Union[str, Path]) -> Path:
    """Write a bench report (the committed one is ``BENCH_serve.json``).

    ``path`` has no default, so no caller rewrites the committed root
    report by leaving it out.
    """
    return write_root_report(
        path,
        str(report["label"]),
        report["config"],   # type: ignore[arg-type]
        report["metrics"],  # type: ignore[arg-type]
        METRIC_UNITS,
        ok=report["ok"],
        slo=report["slo"],
        per_strategy=report["per_strategy"],
    )


def render_bench_summary(report: Dict[str, object],
                         shards: Optional[int] = None) -> str:
    """Human-readable one-screen summary of a bench report.

    ``shards`` is display-only (the report itself is shard-agnostic).
    """
    from ..evaluate import format_table

    metrics: Dict[str, float] = report["metrics"]  # type: ignore[assignment]
    config: Dict[str, object] = report["config"]   # type: ignore[assignment]
    on = f" on {shards} shard(s)" if shards is not None else ""
    lines = [
        f"serve bench: {int(metrics['serve.tenants'])} tenant(s){on}, "
        f"seed={config['seed']}",
        f"  proposes {int(metrics['serve.proposes'])}  observes "
        f"{int(metrics['serve.observes'])}  ticks "
        f"{int(metrics['serve.ticks'])}  errors "
        f"{int(metrics['serve.errors'])}",
        f"  propose latency ticks: p50 "
        f"{metrics['serve.propose_p50_ticks']:.1f}  p99 "
        f"{metrics['serve.propose_p99_ticks']:.1f} "
        f"(bound {config['p99_bound']})  max "
        f"{metrics['serve.propose_max_ticks']:.1f}",
        f"  mean regret {metrics['serve.mean_regret']:.3f}  "
        f"slo failures {int(metrics['serve.slo_failures'])}  -> "
        + ("OK" if report["ok"] else "FAILED"),
    ]
    rows = [
        [name, f"{row['tenants']:.0f}", f"{row['proposes']:.0f}",
         f"{row['mean_regret']:.3f}"]
        for name, row in report["per_strategy"].items()  # type: ignore[union-attr]
    ]
    lines.append(format_table(
        ["strategy", "tenants", "proposes", "mean regret"], rows))
    return "\n".join(lines)
