"""The tuning service: shard workers, tenant routing, shared bank store.

Determinism model (DESIGN, "Shard determinism"):

* **Stable tenant hashing** -- a tenant lands on shard
  ``crc32(tenant_id) % num_shards``: stable across processes and
  registration orders (never the salted builtin ``hash``).
* **Per-shard tick clocks** -- every shard owns its own injected
  :class:`~repro.obs.clock.TickClock`; :meth:`TuningService.tick`
  advances all shards in index order, so shard tick *k* is global
  tick *k* regardless of shard count.
* **Ordered batch collection** -- within a tick, each shard services
  its sessions in sorted-tenant order and the service concatenates
  shard outputs in index order, so the response stream is a
  deterministic function of the request stream for a given shard
  count.  Cross-shard-count invariance is stronger and comes from the
  session layer: every per-tenant quantity is a pure function of the
  tenant's own stream, and reports aggregate tenants in sorted order.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional

from ..evaluate.cache import DurationCache, simulation_fingerprint
from ..measure.bank import MeasurementBank
from ..obs.clock import Clock, TickClock
from ..obs.registry import Registry
from ..strategies.registry import registered_names
from . import protocol
from .session import (
    DEFAULT_OBSERVE_BATCH,
    DEFAULT_PROPOSE_BATCH,
    TenantSession,
    derive_tenant_seed,
    space_from_wire,
)


def shard_for(tenant_id: str, num_shards: int) -> int:
    """Stable shard index of one tenant (crc32, never builtin hash)."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    return zlib.crc32(tenant_id.encode("utf-8")) % num_shards


class BankStore:
    """Content-fingerprint-keyed shared measurement banks.

    Simulated tenants on the same scenario share one
    :class:`MeasurementBank` *and* one :class:`DurationCache`: the bank
    registry is keyed by the same content fingerprint family the
    harness memoizes simulations under, and the duration cache is
    threaded through every ``cached_bank`` sweep so a second tenant's
    scenario warm-up is a pure cache hit.
    """

    def __init__(self, cache: Optional[DurationCache] = None) -> None:
        self.cache = cache if cache is not None else DurationCache()
        self._banks: Dict[str, MeasurementBank] = {}
        self._scenario_keys: Dict[str, str] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._banks)

    def put(self, fingerprint: str, bank: MeasurementBank) -> None:
        """Register a materialized bank under its content fingerprint."""
        self._banks[fingerprint] = bank

    def get(self, fingerprint: str) -> Optional[MeasurementBank]:
        """The bank registered under ``fingerprint``, if any."""
        bank = self._banks.get(fingerprint)
        if bank is not None:
            self.hits += 1
        else:
            self.misses += 1
        return bank

    def scenario_fingerprint(self, scenario) -> str:
        """Bank-level content fingerprint of one table scenario.

        Reuses :func:`simulation_fingerprint` with a zero plan: the key
        covers scenario content, resolved tile count, perf-model
        calibration and the sweep model version -- everything that
        determines the bank -- without naming any one configuration.
        """
        if scenario.key not in self._scenario_keys:
            from ..workload import Workload

            tiles = Workload.from_name(scenario.workload).t
            self._scenario_keys[scenario.key] = simulation_fingerprint(
                scenario, tiles, n_fact=0, n_gen=0
            )
        return self._scenario_keys[scenario.key]

    def bank_for_scenario(self, scenario) -> MeasurementBank:
        """Get-or-sweep the bank of a table scenario (shared cache)."""
        fingerprint = self.scenario_fingerprint(scenario)
        bank = self.get(fingerprint)
        if bank is None:
            from ..measure.sweep import cached_bank

            bank = cached_bank(scenario, cache=self.cache)
            self.put(fingerprint, bank)
        return bank

    def stats(self) -> Dict[str, float]:
        """Deterministic summary (bank registry + duration cache)."""
        out = {
            "banks": float(len(self._banks)),
            "hits": float(self.hits),
            "misses": float(self.misses),
        }
        for key, value in self.cache.stats().items():
            out[f"durations.{key}"] = float(value)
        return out


class ShardWorker:
    """One shard: a tick clock and the sessions hashed onto it."""

    def __init__(self, index: int, clock: Optional[Clock] = None) -> None:
        self.index = index
        self.clock = clock if clock is not None else TickClock()
        self.sessions: Dict[str, TenantSession] = {}
        #: Tick number the *next* :meth:`tick` will run as; mirrored
        #: outside the clock so arrival stamping never advances it.
        self.next_tick = 0

    def pending(self) -> int:
        """Requests queued across this shard's sessions."""
        return sum(s.pending() for s in self.sessions.values())

    def tick(self) -> List[Dict[str, object]]:
        """Service every session once, in sorted-tenant order.

        Closed (``bye``) sessions stay in the map; the owning
        :class:`TuningService` moves them to its retired set so their
        stats survive for the report.
        """
        tick = int(self.clock.now())
        self.next_tick = tick + 1
        responses: List[Dict[str, object]] = []
        for tenant_id in sorted(self.sessions):
            responses.extend(self.sessions[tenant_id].step(tick))
        return responses


class TuningService:
    """Sharded multi-tenant tuning service (transport-agnostic core).

    Parameters
    ----------
    num_shards:
        Shard worker count; tenants are hashed across them.
    base_seed:
        Folded into every tenant's strategy seed derivation.
    bank_store:
        Shared scenario-bank registry (created on demand).
    registry:
        Metric registry: counts requests/responses, tracks active
        tenants and the propose-latency histogram.
    clock_factory:
        Called once per shard; defaults to deterministic tick clocks.
    """

    def __init__(
        self,
        num_shards: int = 4,
        base_seed: int = 0,
        bank_store: Optional[BankStore] = None,
        registry: Optional[Registry] = None,
        observe_batch: int = DEFAULT_OBSERVE_BATCH,
        propose_batch: int = DEFAULT_PROPOSE_BATCH,
        clock_factory: Callable[[], Clock] = TickClock,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.shards = [ShardWorker(i, clock_factory())
                       for i in range(num_shards)]
        self.base_seed = base_seed
        self.bank_store = bank_store if bank_store is not None else BankStore()
        self.registry = registry if registry is not None else Registry()
        self.observe_batch = observe_batch
        self.propose_batch = propose_batch
        self.ticks = 0
        #: Sessions that completed (said ``bye``), kept for reporting.
        self.retired: Dict[str, TenantSession] = {}

    # -- routing -----------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, tenant_id: str) -> ShardWorker:
        """The shard worker owning ``tenant_id``."""
        return self.shards[shard_for(tenant_id, self.num_shards)]

    def session_of(self, tenant_id: str) -> Optional[TenantSession]:
        """The live session of ``tenant_id``, if registered."""
        return self.shard_of(tenant_id).sessions.get(tenant_id)

    def active_tenants(self) -> int:
        """Live (registered, not yet retired) tenant count."""
        return sum(len(shard.sessions) for shard in self.shards)

    # -- request handling --------------------------------------------------------------

    def _resolve_space(self, message: Dict[str, object]):
        """Action space for a ``hello``: inline wire space or scenario."""
        if "space" in message:
            return space_from_wire(message["space"])  # type: ignore[arg-type]
        from ..platform.scenarios import SCENARIOS

        key = str(message["scenario"])
        if key in SCENARIOS:
            bank = self.bank_store.bank_for_scenario(SCENARIOS[key])
            return bank.action_space()
        raise protocol.ProtocolError(
            "unknown-scenario",
            f"{key!r} is not in the scenario table "
            f"({'..'.join([min(SCENARIOS), max(SCENARIOS)])})",
        )

    def register(self, message: Dict[str, object],
                 space=None) -> Dict[str, object]:
        """Create the session of a validated ``hello``; returns welcome.

        ``space`` overrides the wire space resolution -- the load
        generator uses it to hand simulated tenants their shared bank's
        space directly.
        """
        tenant_id = str(message["tenant"])
        shard = self.shard_of(tenant_id)
        if tenant_id in shard.sessions or tenant_id in self.retired:
            raise protocol.ProtocolError(
                "duplicate-tenant", f"tenant {tenant_id!r} already known")
        strategy = str(message["strategy"])
        if strategy not in registered_names():
            raise protocol.ProtocolError(
                "unknown-strategy",
                f"{strategy!r} not registered; see registered_names()")
        if space is None:
            space = self._resolve_space(message)
        seed = derive_tenant_seed(
            tenant_id, self.base_seed + int(message["seed"]))
        session = TenantSession(
            tenant_id, strategy, space, seed=seed,
            observe_batch=self.observe_batch,
            propose_batch=self.propose_batch,
        )
        shard.sessions[tenant_id] = session
        self.registry.counter("serve.hello").inc()
        self.registry.gauge("serve.active_tenants").set(
            self.active_tenants())
        return protocol.welcome(tenant_id, shard=shard.index,
                                actions=space.actions)

    def handle(self, message: Dict[str, object]) -> Optional[Dict[str, object]]:
        """Route one validated request.

        ``hello`` is answered immediately (registration is not a
        strategy update); observe/propose/bye enqueue onto the owning
        shard and are answered by a later :meth:`tick`.  Returns the
        immediate response, or ``None`` for queued requests.  Raises
        :class:`~repro.serve.protocol.ProtocolError` for requests the
        service refuses (unknown tenant, duplicate hello, ...).
        """
        kind = message["kind"]
        tenant_id = str(message["tenant"])
        if kind == "hello":
            return self.register(message)
        shard = self.shard_of(tenant_id)
        session = shard.sessions.get(tenant_id)
        if session is None:
            raise protocol.ProtocolError(
                "unknown-tenant", f"tenant {tenant_id!r} never said hello")
        session.enqueue(message, shard.next_tick)
        self.registry.counter(f"serve.{kind}").inc()
        return None

    def handle_line(self, line: str) -> Optional[str]:
        """Wire-level entry: parse, route, render.

        Protocol violations come back as rendered ``error`` responses,
        never exceptions.
        """
        try:
            message = protocol.parse_request(line)
            response = self.handle(message)
        except protocol.ProtocolError as err:
            self.registry.counter("serve.error").inc()
            return protocol.render(protocol.error_response(err))
        return protocol.render(response) if response is not None else None

    # -- ticking -----------------------------------------------------------------------

    def tick(self) -> List[Dict[str, object]]:
        """Advance every shard once, in index order.

        Returns the concatenated responses (shard order, sorted-tenant
        order within each shard) and feeds the metric registry:
        response counters, the active-tenant gauge and the
        propose-latency histogram.
        """
        self.ticks += 1
        responses: List[Dict[str, object]] = []
        for shard in self.shards:
            shard_responses = shard.tick()
            for tenant_id in sorted(shard.sessions):
                if shard.sessions[tenant_id].closed:
                    self.retired[tenant_id] = shard.sessions.pop(tenant_id)
            for response in shard_responses:
                responses.append(response)
                self._observe_response(response)
        self.registry.gauge("serve.active_tenants").set(
            self.active_tenants())
        return responses

    def _observe_response(self, response: Dict[str, object]) -> None:
        kind = response["kind"]
        self.registry.counter(f"serve.response.{kind}").inc()
        if kind == "proposal":
            session = self._any_session(str(response["tenant"]))
            if session is not None and session.propose_latencies:
                latency = float(session.propose_latencies[-1])
                self.registry.histogram(
                    "serve.propose_latency_ticks").observe(latency)

    def _any_session(self, tenant_id: str) -> Optional[TenantSession]:
        """Find a session whether live or already retired this tick."""
        session = self.session_of(tenant_id)
        if session is not None:
            return session
        return self.retired.get(tenant_id)

    def pending(self) -> int:
        """Requests queued across all shards."""
        return sum(shard.pending() for shard in self.shards)

    def drain(self, max_ticks: int = 100_000) -> List[Dict[str, object]]:
        """Tick until every inbox is empty; returns all responses."""
        responses: List[Dict[str, object]] = []
        while self.pending():
            if self.ticks >= max_ticks:
                raise RuntimeError(
                    f"service did not drain within {max_ticks} ticks")
            responses.extend(self.tick())
        return responses

    def snapshot(self) -> Dict[str, object]:
        """Deterministic service-level summary."""
        return {
            "ticks": self.ticks,
            "shards": self.num_shards,
            "active_tenants": self.active_tenants(),
            "retired_tenants": len(self.retired),
            "bank_store": self.bank_store.stats(),
            "registry": self.registry.snapshot(),
        }
