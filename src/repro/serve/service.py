"""The tuning service: shard workers, tenant routing, shared bank store.

Determinism model (DESIGN, "Shard determinism"):

* **Stable tenant hashing** -- a tenant lands on shard
  ``crc32(tenant_id) % num_shards``: stable across processes and
  registration orders (never the salted builtin ``hash``).
* **One tick count** -- the service counts its own ticks;
  :meth:`TuningService.tick` services every shard in index order at
  the same tick number, so shard tick *k* is service tick *k*
  regardless of shard count.
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
from typing import Dict, List, Optional

from ..evaluate.cache import DurationCache, simulation_fingerprint
from ..measure.bank import MeasurementBank
from ..strategies.registry import registered_names
from . import protocol
from .session import TenantSession, derive_tenant_seed, space_from_wire


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
        """Deterministic bank-registry summary (banks, hits, misses)."""
        return {
            "banks": float(len(self._banks)),
            "hits": float(self.hits),
            "misses": float(self.misses),
        }


class ShardWorker:
    """One shard: the sessions hashed onto it."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.sessions: Dict[str, TenantSession] = {}

    def pending(self) -> int:
        """Requests queued across this shard's sessions."""
        return sum(s.pending() for s in self.sessions.values())

    def tick(self, tick: int) -> List[Dict[str, object]]:
        """Service every session once at ``tick``, in sorted-tenant order.

        Closed (``bye``) sessions stay in the map; the owning
        :class:`TuningService` moves them to its retired set so their
        stats survive for the report.
        """
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
    """

    def __init__(
        self,
        num_shards: int = 4,
        base_seed: int = 0,
        bank_store: Optional[BankStore] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.shards = [ShardWorker(i) for i in range(num_shards)]
        self.base_seed = base_seed
        self.bank_store = bank_store if bank_store is not None else BankStore()
        #: Ticks run so far; also the tick the next :meth:`tick` runs as.
        self.ticks = 0
        #: Protocol errors answered by :meth:`handle_line`.
        self.errors = 0
        #: Sessions that completed (said ``bye``), kept for reporting.
        self.retired: Dict[str, TenantSession] = {}

    # -- routing -----------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, tenant_id: str) -> ShardWorker:
        """The shard worker owning ``tenant_id``."""
        return self.shards[shard_for(tenant_id, self.num_shards)]

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
        shard.sessions[tenant_id] = TenantSession(
            tenant_id, strategy, space, seed=seed)
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
        session.enqueue(message, self.ticks)
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
            self.errors += 1
            return protocol.render(protocol.error_response(err))
        return protocol.render(response) if response is not None else None

    # -- ticking -----------------------------------------------------------------------

    def tick(self) -> List[Dict[str, object]]:
        """Advance every shard once, in index order.

        Returns the concatenated responses (shard order, sorted-tenant
        order within each shard).
        """
        tick = self.ticks
        self.ticks += 1
        responses: List[Dict[str, object]] = []
        for shard in self.shards:
            responses.extend(shard.tick(tick))
            for tenant_id in sorted(shard.sessions):
                if shard.sessions[tenant_id].closed:
                    self.retired[tenant_id] = shard.sessions.pop(tenant_id)
        return responses

    def pending(self) -> int:
        """Requests queued across all shards."""
        return sum(shard.pending() for shard in self.shards)
