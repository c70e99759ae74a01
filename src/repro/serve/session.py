"""One tenant's strategy lifecycle inside a shard worker.

A session owns a registry strategy instance and drives it through the
existing propose/observe contract as protocol messages arrive.  Every
quantity a session reports -- applied observations, proposals, queueing
latencies -- is a pure function of the tenant's own request stream and
seed, never of co-tenants or of which shard hosts it.  That invariant
is what makes the bench report byte-identical across shard counts (see
DESIGN, "Shard determinism").

Updates are *batched per tick*: requests enqueue immediately, and the
owning shard services each session once per tick, applying up to
:data:`OBSERVE_BATCH` queued observations as one strategy update and
answering at most :data:`PROPOSE_BATCH` proposals.  The recorded
latency of a request is the number of ticks from enqueue to service
(>= 1), i.e. the batching delay a live client would experience.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Deque, Dict, List, Tuple

from ..strategies.base import ActionSpace
from ..strategies.registry import make_strategy
from . import protocol

#: Content tag namespacing every serve-layer seed derivation, so tenant
#: streams can never collide with harness cells (0xBA5E) or fuzzed
#: platforms (0xF022).
SERVE_TAG = 0x5E12

#: Observations applied per session per tick (one batched strategy
#: update); the warm-start backlog of a freshly connected tenant drains
#: at this rate.
OBSERVE_BATCH = 8

#: Proposals answered per session per tick.
PROPOSE_BATCH = 1


def derive_tenant_seed(tenant_id: str, base_seed: int = 0) -> int:
    """Deterministic integer strategy seed for one tenant.

    CRC32 of the tenant id folded with the service's base seed --
    stable across processes and Python versions (never the salted
    builtin ``hash``), and independent of registration order.
    """
    return zlib.crc32(f"{base_seed}:{tenant_id}".encode("utf-8"))


class TenantSession:
    """Strategy + request queue for one tenant.

    Parameters
    ----------
    tenant_id:
        Wire identity of the tenant (non-empty string).
    strategy_name:
        Registry name (``repro.strategies.registry.registered_names``).
    space:
        Action space the strategy explores.
    seed:
        Strategy seed (see :func:`derive_tenant_seed`).
    """

    def __init__(
        self,
        tenant_id: str,
        strategy_name: str,
        space: ActionSpace,
        seed: int = 0,
    ) -> None:
        self.tenant_id = tenant_id
        self.strategy_name = strategy_name
        self.strategy = make_strategy(strategy_name, space, seed=seed)
        #: FIFO of (message, arrival_tick) awaiting the shard tick.
        self.inbox: Deque[Tuple[Dict[str, object], int]] = deque()
        self.proposes = 0
        self.observes = 0
        self.closed = False
        #: Ticks-from-enqueue-to-service per answered proposal; the
        #: bench's p99 is computed over these, merged in sorted-tenant
        #: order so the aggregate never depends on shard layout.
        self.propose_latencies: List[int] = []
        #: Same, for applied observations.
        self.observe_latencies: List[int] = []

    # -- queueing ----------------------------------------------------------------------

    def enqueue(self, message: Dict[str, object], tick: int) -> None:
        """Queue one validated observe/propose/bye request."""
        if self.closed:
            raise protocol.ProtocolError(
                "unknown-tenant",
                f"tenant {self.tenant_id!r} already said bye",
            )
        self.inbox.append((message, tick))

    def pending(self) -> int:
        """Requests still waiting for a tick."""
        return len(self.inbox)

    # -- servicing ---------------------------------------------------------------------

    def step(self, tick: int) -> List[Dict[str, object]]:
        """Service this session for one tick.

        Applies at most :data:`OBSERVE_BATCH` queued observations as one
        batched strategy update and answers at most :data:`PROPOSE_BATCH`
        proposals, strictly in arrival order (an unserviced proposal also
        blocks later observations so the client's stream ordering is
        preserved).  Returns the response messages, oldest first.
        """
        responses: List[Dict[str, object]] = []
        observed = 0
        proposed = 0
        while self.inbox:
            message, arrival = self.inbox[0]
            kind = message["kind"]
            if kind == "observe":
                if observed >= OBSERVE_BATCH:
                    break
                self.strategy.observe(int(message["n"]),
                                      float(message["duration"]))
                observed += 1
                self.observes += 1
                self.observe_latencies.append(tick - arrival + 1)
                responses.append(protocol.ack(
                    self.tenant_id, observed=self.observes, tick=tick))
            elif kind == "propose":
                if proposed >= PROPOSE_BATCH:
                    break
                n = self.strategy.propose()
                proposed += 1
                self.proposes += 1
                self.propose_latencies.append(tick - arrival + 1)
                responses.append(protocol.proposal(
                    self.tenant_id, n=n, tick=tick))
            else:  # bye
                self.closed = True
                responses.append(protocol.goodbye(
                    self.tenant_id, proposes=self.proposes,
                    observes=self.observes))
                self.inbox.clear()
                return responses
            self.inbox.popleft()
        return responses


def space_from_wire(body: Dict[str, object]) -> ActionSpace:
    """Build an :class:`ActionSpace` from a validated ``hello.space``.

    Inline spaces carry no LP bound (a live tenant's lower bound is
    unknowable service-side); strategies that consult it receive 0.0,
    the same degenerate bound the synthetic test banks use.
    """
    actions = tuple(int(a) for a in body["actions"])  # type: ignore[index]
    boundaries = tuple(
        int(b) for b in body.get("group_boundaries", [])  # type: ignore[union-attr]
    )
    return ActionSpace(
        actions=actions,
        n_total=actions[-1],
        group_boundaries=boundaries,
        lp_bound=lambda n: 0.0,
    )
