"""Declarative, JSON-serializable fault models and schedules.

The paper's evaluation assumes a *stationary* platform: the
duration-vs-nodes curve of Figure 5 never moves, so a converged strategy
exploits forever.  Real heterogeneous clusters are not that kind --
nodes straggle (thermal throttling, failing fans), crash (hardware,
preemption), share the network with other jobs, and suffer interference
bursts.  This module describes those regimes as **data**: small frozen
dataclasses composed into a :class:`FaultSchedule` that is

* **declarative** -- a fault says *what* happens to the platform over
  which iteration window, never *how* to perturb a number; the
  arithmetic lives in :mod:`repro.faults.injector`;
* **JSON-serializable** -- schedules round-trip through
  :meth:`FaultSchedule.to_json` / :meth:`FaultSchedule.from_json`, so a
  campaign config can be committed, diffed and replayed;
* **content-fingerprinted** -- :meth:`FaultSchedule.fingerprint` is a
  SHA-256 over the canonical JSON rendering, stamped into campaign
  reports;
* **seed-deterministic** -- the only randomness (per-iteration jitter of
  an :class:`InterferenceBurst`) is derived from the schedule's ``seed``
  through ``np.random.default_rng`` seed sequences, the repository's
  standard stream convention (DET001 stays clean).

Node indices are **1-based ranks in the "n fastest" ordering** of
Section IV: action ``n`` uses nodes ``1..n``, so a fault on node ``k``
affects exactly the actions ``n >= k``.  That mapping is what turns
node-level events into the action-level discontinuities the strategies
must navigate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import ClassVar, Dict, List, Optional, Tuple, Type

#: Bump when the serialized schedule layout changes incompatibly.
FAULT_SCHEMA_VERSION = 1

#: ``end`` value meaning "until the end of the run" (open window).
FOREVER: Optional[int] = None


def _check_window(start: int, end: Optional[int]) -> None:
    if start < 0:
        raise ValueError("fault start must be a non-negative iteration")
    if end is not None and end <= start:
        raise ValueError("fault end must be after start (or None for open)")


def _active(start: int, end: Optional[int], iteration: int) -> bool:
    return iteration >= start and (end is None or iteration < end)


@dataclass(frozen=True)
class NodeSlowdown:
    """A straggler: node ``node`` retains ``gflops_factor`` of its rate.

    Iterations are lock-step over the selected nodes (the factorization
    is a tightly-coupled phase), so a straggler included in the working
    set slows the whole iteration by ``1 / gflops_factor``.  Actions
    ``n < node`` dodge the straggler entirely -- the optimum can move
    *below* the straggler's rank, which is exactly the discontinuity a
    re-exploring strategy should find.
    """

    kind: ClassVar[str] = "slowdown"

    node: int
    gflops_factor: float
    start: int = 0
    end: Optional[int] = FOREVER

    def __post_init__(self) -> None:
        if self.node < 1:
            raise ValueError("node rank is 1-based and must be >= 1")
        if not 0.0 < self.gflops_factor <= 1.0:
            raise ValueError("gflops_factor must be in (0, 1]")
        _check_window(self.start, self.end)

    def active(self, iteration: int) -> bool:
        """Whether this fault applies at ``iteration``."""
        return _active(self.start, self.end, iteration)


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node`` leaves the cluster over ``[start, end)``.

    While crashed, the feasible action space shrinks: with ``k`` nodes
    down at iteration ``t``, no action above ``N - k`` can actually run.
    A strategy that still proposes one is degraded -- the runtime clips
    the working set to the surviving nodes and the iteration pays
    ``penalty`` (timeout, work re-distribution) on top of the clipped
    configuration's duration.  ``end=None`` is a permanent loss.
    """

    kind: ClassVar[str] = "crash"

    node: int
    start: int = 0
    end: Optional[int] = FOREVER
    penalty: float = 1.5

    def __post_init__(self) -> None:
        if self.node < 1:
            raise ValueError("node rank is 1-based and must be >= 1")
        if self.penalty < 1.0:
            raise ValueError("penalty must be >= 1 (a crash never helps)")
        _check_window(self.start, self.end)

    def active(self, iteration: int) -> bool:
        """Whether the node is down at ``iteration``."""
        return _active(self.start, self.end, iteration)


@dataclass(frozen=True)
class InterferenceBurst:
    """Additive per-iteration duration shift over a window (co-located job).

    ``magnitude_s`` seconds are added to every iteration in the window,
    regardless of the action (interference hits the shared machine, not
    a particular configuration).  ``jitter`` spreads the shift
    uniformly over ``magnitude_s * [1 - jitter, 1 + jitter]``, with the
    per-iteration draw derived from the schedule seed -- reproducible,
    never from global RNG state.
    """

    kind: ClassVar[str] = "interference"

    magnitude_s: float
    start: int = 0
    end: Optional[int] = FOREVER
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.magnitude_s < 0:
            raise ValueError("magnitude_s must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        _check_window(self.start, self.end)

    def active(self, iteration: int) -> bool:
        """Whether the burst covers ``iteration``."""
        return _active(self.start, self.end, iteration)


@dataclass(frozen=True)
class NetworkDegradation:
    """Bandwidth drops to ``bandwidth_factor`` of nominal over a window.

    Communication grows with the working-set size (Section IV's linear
    overhead term), so degraded bandwidth penalizes large actions more:
    the injector scales the communication share of action ``n`` --
    approximated as ``comm_share * (n - 1) / (N - 1)`` of the iteration
    -- by ``1 / bandwidth_factor``.  Small configurations barely notice;
    all-nodes configurations suffer most, shifting the optimum left.
    """

    kind: ClassVar[str] = "network"

    bandwidth_factor: float
    start: int = 0
    end: Optional[int] = FOREVER
    comm_share: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")
        if not 0.0 <= self.comm_share <= 1.0:
            raise ValueError("comm_share must be in [0, 1]")
        _check_window(self.start, self.end)

    def active(self, iteration: int) -> bool:
        """Whether the degradation covers ``iteration``."""
        return _active(self.start, self.end, iteration)


#: Every concrete fault model, keyed by its serialized ``kind`` tag.
FAULT_KINDS: Dict[str, Type] = {
    cls.kind: cls
    for cls in (NodeSlowdown, NodeCrash, InterferenceBurst, NetworkDegradation)
}

#: Union type alias for documentation purposes.
FaultModel = object


def fault_to_dict(fault) -> dict:
    """Serialize one fault model to a plain JSON-compatible dict."""
    if type(fault) not in FAULT_KINDS.values():
        raise TypeError(f"not a fault model: {fault!r}")
    payload = {"kind": fault.kind}
    payload.update(asdict(fault))
    return payload


def fault_from_dict(payload: dict):
    """Rebuild a fault model serialized by :func:`fault_to_dict`."""
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r}; known: {sorted(FAULT_KINDS)}"
        )
    return FAULT_KINDS[kind](**data)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, immutable collection of fault events for one campaign.

    Attributes
    ----------
    label:
        Human-readable scenario name (``"crash"``, ``"straggler"`` ...).
    faults:
        The fault events, in declaration order.
    seed:
        Entropy root of every derived stream (interference jitter).
    """

    label: str
    faults: Tuple[object, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for f in self.faults:
            if type(f) not in FAULT_KINDS.values():
                raise TypeError(f"not a fault model: {f!r}")

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def empty(self) -> bool:
        """True when the schedule holds no fault at all."""
        return not self.faults

    def of_kind(self, kind: str) -> List[object]:
        """Every fault of one ``kind`` tag, in declaration order."""
        return [f for f in self.faults if f.kind == kind]

    def crashed_nodes(self, iteration: int) -> Tuple[int, ...]:
        """Sorted distinct node ranks down at ``iteration``."""
        return tuple(sorted({
            f.node for f in self.of_kind("crash") if f.active(iteration)
        }))

    def validate_for(self, n_total: int, lo: int = 1) -> None:
        """Check the schedule is feasible on an ``lo..n_total`` space.

        Node ranks must exist, and crashes may never sink the feasible
        maximum below the smallest allowed action (a cluster with every
        node down has nothing left to schedule on).
        """
        for f in self.faults:
            node = getattr(f, "node", None)
            if node is not None and node > n_total:
                raise ValueError(
                    f"fault on node {node} but the scenario has only "
                    f"{n_total} nodes"
                )
        worst = max(
            (len(self.crashed_nodes(f.start)) for f in self.of_kind("crash")),
            default=0,
        )
        if n_total - worst < lo:
            raise ValueError(
                f"{worst} concurrent crashes leave fewer than {lo} nodes; "
                "the action space would be empty"
            )

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON rendering (stable key order, no whitespace)."""
        payload = {
            "schema": FAULT_SCHEMA_VERSION,
            "label": self.label,
            "seed": int(self.seed),
            "faults": [fault_to_dict(f) for f in self.faults],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, blob: str) -> "FaultSchedule":
        """Rebuild a schedule serialized by :meth:`to_json`."""
        payload = json.loads(blob)
        if payload.get("schema") != FAULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported fault schema {payload.get('schema')!r} "
                f"(expected {FAULT_SCHEMA_VERSION})"
            )
        return cls(
            label=payload["label"],
            faults=tuple(fault_from_dict(d) for d in payload["faults"]),
            seed=int(payload.get("seed", 0)),
        )

    def fingerprint(self) -> str:
        """SHA-256 content hash of the canonical JSON rendering.

        Stamped into campaign reports, so a report names the exact
        schedules it ran.
        """
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Multi-line human summary (the ``repro faults describe`` body)."""
        lines = [f"schedule {self.label!r}: {len(self.faults)} fault(s), "
                 f"seed {self.seed}"]
        for f in self.faults:
            window = (f"[{f.start}, "
                      f"{'∞' if f.end is None else f.end})")
            detail = {
                "slowdown": lambda: f"node {f.node} at "
                                    f"{f.gflops_factor:.0%} rate",
                "crash": lambda: f"node {f.node} down "
                                 f"(penalty x{f.penalty:g})",
                "interference": lambda: f"+{f.magnitude_s:g}s per iteration"
                                        + (f" (jitter {f.jitter:.0%})"
                                           if f.jitter else ""),
                "network": lambda: f"bandwidth at {f.bandwidth_factor:.0%}"
                                   f" (comm share {f.comm_share:.0%})",
            }[f.kind]()
            lines.append(f"  {f.kind:<12} {window:<12} {detail}")
        return "\n".join(lines)


#: Empty schedule: injecting it is the identity transformation.
STATIONARY = FaultSchedule(label="stationary", faults=())

#: Names of the :func:`canned_schedules`, known before any are built.
CANNED_SCHEDULES = ("straggler", "crash", "interference", "netdeg",
                    "compound")


def canned_schedules(
    n_total: int, iterations: int, seed: int = 0
) -> Dict[str, FaultSchedule]:
    """The canned fault scenarios of the campaign driver, sized to a run.

    Windows scale with ``iterations`` and node ranks with ``n_total`` so
    the same scenario names apply to every bank.  Four single-mode
    scenarios plus a compound one:

    ``straggler``
        A mid-rank node throttles to half rate for the middle third --
        the optimum moves below the straggler, then moves back.
    ``crash``
        The top quarter of nodes (at least one) is lost permanently at
        one third of the run -- the previously-best large actions stop
        existing.
    ``interference``
        A co-located job adds ~1.5 s per iteration over the middle
        third, with 30 % jitter from the schedule seed.
    ``netdeg``
        Bandwidth drops to 40 % for the second half -- large actions
        pay, the optimum shifts left.
    ``compound``
        Interference burst followed by a permanent single-node crash.
    """
    if n_total < 2:
        raise ValueError("canned schedules need at least 2 nodes")
    if iterations < 9:
        raise ValueError("canned schedules need at least 9 iterations")
    third, two_thirds = iterations // 3, (2 * iterations) // 3
    half = iterations // 2
    mid_node = max(2, n_total // 2)
    crash_count = max(1, n_total // 4)
    crashes = tuple(
        NodeCrash(node=n_total - i, start=third)
        for i in range(crash_count)
    )
    return {
        "straggler": FaultSchedule(
            label="straggler",
            faults=(NodeSlowdown(node=mid_node, gflops_factor=0.5,
                                 start=third, end=two_thirds),),
            seed=seed,
        ),
        "crash": FaultSchedule(label="crash", faults=crashes, seed=seed),
        "interference": FaultSchedule(
            label="interference",
            faults=(InterferenceBurst(magnitude_s=1.5, start=third,
                                      end=two_thirds, jitter=0.3),),
            seed=seed,
        ),
        "netdeg": FaultSchedule(
            label="netdeg",
            faults=(NetworkDegradation(bandwidth_factor=0.4, start=half),),
            seed=seed,
        ),
        "compound": FaultSchedule(
            label="compound",
            faults=(
                InterferenceBurst(magnitude_s=1.0, start=third // 2,
                                  end=third, jitter=0.2),
                NodeCrash(node=n_total, start=half),
            ),
            seed=seed,
        ),
    }
