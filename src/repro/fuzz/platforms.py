"""Seeded sampling of heterogeneous platform/workload scenarios.

Every fuzzed scenario is a pure function of ``(root_seed, index)``: the
sampler draws from ``np.random.default_rng((root_seed, FUZZ_TAG,
index))`` -- the same seed-sequence idiom as the evaluation harness's
:func:`repro.evaluate.parallel.derive_cell_seed` -- so corpora are
bit-identical across runs and machines.  Half of the
draws anchor on a Table-II scenario picked by ``index`` through the
locked :func:`repro.platform.all_scenarios` ordering (tests pin that
ordering precisely so this derivation is stable), the other half are
free mixes of the Table-II node categories.

A :class:`FuzzedPlatform` embeds a real
:class:`repro.platform.scenarios.Scenario` (same fields, same
validation, same ``build_cluster`` path) plus the fuzzed axes the fixed
menu cannot express: per-category speed ratios, a network bandwidth
factor, an elastic pool size and an optional fault schedule drawn from
:func:`repro.faults.canned_schedules`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..faults import FaultSchedule, canned_schedules
from ..platform.catalog import network_for_site, node_type
from ..platform.cluster import Cluster
from ..platform.scenarios import Scenario, all_scenarios
from .workloads import MapShuffleReduceWorkload

#: Seed-sequence content tag of the fuzz layer (cf. ``BASELINE_TAG`` /
#: ``JITTER_TAG``): keeps fuzz streams decorrelated from evaluation and
#: jitter streams built over the same root seed.
FUZZ_TAG = 0xF022

#: Workload families the sampler can draw.
FAMILIES = ("cholesky", "msr")

#: Schema version of serialized platforms / promoted goldens.
FUZZ_SCHEMA_VERSION = 1

#: Canned fault schedule names the sampler may attach.
SCHEDULE_NAMES = ("straggler", "crash", "interference", "netdeg", "compound")


@dataclass(frozen=True)
class FuzzConfig:
    """Bounds of the sampled space (all inclusive).

    ``iterations`` is baked into sampled fault schedules (their windows
    scale with the run length, like the campaign driver's).
    """

    min_nodes: int = 4
    max_nodes: int = 20
    min_groups: int = 1
    max_groups: int = 3
    speed_ratio: Tuple[float, float] = (0.6, 1.6)
    bandwidth_ratio: Tuple[float, float] = (0.5, 2.0)
    tiles: Tuple[int, int] = (8, 12)
    matrix_order: Tuple[int, int] = (48000, 80000)
    msr_maps_per_node: Tuple[int, int] = (2, 5)
    msr_reduces: Tuple[int, int] = (2, 8)
    msr_record_mb: Tuple[float, float] = (64.0, 384.0)
    msr_skew: Tuple[float, float] = (1.0, 6.0)
    fault_prob: float = 0.25
    real_mode_prob: float = 0.2
    anchor_prob: float = 0.5
    iterations: int = 50
    augment: int = 12

    def __post_init__(self) -> None:
        if not 2 <= self.min_nodes <= self.max_nodes:
            raise ValueError("node bounds must satisfy 2 <= min <= max")
        if not 1 <= self.min_groups <= self.max_groups <= 3:
            raise ValueError("group bounds must be within [1, 3]")
        if not 0.0 <= self.fault_prob <= 1.0:
            raise ValueError("fault_prob must be in [0, 1]")
        if self.iterations < 9:
            raise ValueError("iterations must be >= 9 (fault windows)")


@dataclass(frozen=True)
class FuzzedPlatform:
    """One fuzzed scenario: a Scenario plus the fuzzed platform axes.

    Attributes
    ----------
    scenario:
        A fully valid :class:`~repro.platform.scenarios.Scenario` (key
        ``fz<index>``): site, per-category counts, workload name, mode.
    family:
        ``"cholesky"`` or ``"msr"``.
    speed_factors:
        Per-category multiplier on cpu/gpu rates, sorted by category.
    bandwidth_factor:
        Multiplier on NIC and backbone bandwidth.
    tiles / matrix_order:
        Cholesky geometry (ignored by the msr family).
    msr:
        The map/shuffle/reduce instance (``None`` for cholesky).
    schedule:
        Optional fault schedule applied during property runs.
    root_seed / index:
        The derivation coordinates; everything above is a pure function
        of them (and the :class:`FuzzConfig`).
    """

    scenario: Scenario
    family: str
    speed_factors: Tuple[Tuple[str, float], ...]
    bandwidth_factor: float
    tiles: int
    matrix_order: int
    msr: Optional[MapShuffleReduceWorkload]
    schedule: Optional[FaultSchedule]
    root_seed: int
    index: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; known: {FAMILIES}")
        validate_scenario(self.scenario)

    @property
    def key(self) -> str:
        """Corpus key (the embedded scenario's key)."""
        return self.scenario.key

    @property
    def label(self) -> str:
        """Human-readable label for tables and bank labels."""
        sched = f" +{self.schedule.label}" if self.schedule is not None else ""
        return f"({self.key}) {self.scenario.label} {self.family}{sched}"

    def speed_factor(self, category: str) -> float:
        """Speed multiplier of one category (1.0 when not fuzzed)."""
        return dict(self.speed_factors).get(category, 1.0)

    def build_cluster(self) -> Cluster:
        """Instantiate the fuzzed cluster.

        Node types are the Table-II ones with cpu/gpu rates scaled by the
        category's speed factor and NIC bandwidth by the bandwidth
        factor; the network model's backbone is scaled alongside.  Memory
        is left untouched (the fuzzed axes are speed ratios, not sizes).
        """
        composition = []
        for cat, count in self.scenario.counts:
            base = node_type(self.scenario.site, cat)
            f = self.speed_factor(cat)
            composition.append((
                dataclasses.replace(
                    base,
                    name=f"{base.name}~{f:.2f}",
                    cpu_gflops=base.cpu_gflops * f,
                    gpu_gflops=base.gpu_gflops * f,
                    nic_gbps=base.nic_gbps * self.bandwidth_factor,
                ),
                count,
            ))
        net = network_for_site(self.scenario.site)
        if net.backbone_gbps is not None:
            net = dataclasses.replace(
                net, backbone_gbps=net.backbone_gbps * self.bandwidth_factor
            )
        return Cluster(composition, network=net, name=self.scenario.label)

    # -- persistence -----------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable canonical form (round-trips exactly)."""
        return {
            "schema": FUZZ_SCHEMA_VERSION,
            "key": self.scenario.key,
            "site": self.scenario.site,
            "counts": [[cat, c] for cat, c in self.scenario.counts],
            "workload": self.scenario.workload,
            "mode": self.scenario.mode,
            "family": self.family,
            "speed_factors": [[cat, f] for cat, f in self.speed_factors],
            "bandwidth_factor": self.bandwidth_factor,
            "tiles": self.tiles,
            "matrix_order": self.matrix_order,
            "msr": None if self.msr is None else {
                "maps": self.msr.maps,
                "reduces": self.msr.reduces,
                "record_mb": self.msr.record_mb,
                "map_flops": self.msr.map_flops,
                "reduce_flops": self.msr.reduce_flops,
                "skew": self.msr.skew,
            },
            "schedule": (
                None if self.schedule is None
                else json.loads(self.schedule.to_json())
            ),
            "root_seed": self.root_seed,
            "index": self.index,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzedPlatform":
        """Rebuild a platform serialized with :meth:`to_dict`."""
        if payload.get("schema") != FUZZ_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported fuzz schema {payload.get('schema')!r}"
            )
        msr = payload.get("msr")
        schedule = payload.get("schedule")
        return cls(
            scenario=Scenario(
                key=payload["key"],
                site=payload["site"],
                counts=tuple((cat, int(c)) for cat, c in payload["counts"]),
                workload=payload["workload"],
                mode=payload["mode"],
            ),
            family=payload["family"],
            speed_factors=tuple(
                (cat, float(f)) for cat, f in payload["speed_factors"]
            ),
            bandwidth_factor=float(payload["bandwidth_factor"]),
            tiles=int(payload["tiles"]),
            matrix_order=int(payload["matrix_order"]),
            msr=None if msr is None else MapShuffleReduceWorkload(
                maps=int(msr["maps"]),
                reduces=int(msr["reduces"]),
                record_mb=float(msr["record_mb"]),
                map_flops=float(msr["map_flops"]),
                reduce_flops=float(msr["reduce_flops"]),
                skew=float(msr["skew"]),
            ),
            schedule=(
                None if schedule is None
                else FaultSchedule.from_json(json.dumps(schedule))
            ),
            root_seed=int(payload["root_seed"]),
            index=int(payload["index"]),
        )

    def fingerprint(self) -> str:
        """Stable content hash (promotion filenames, report identity)."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def validate_scenario(scenario: Scenario) -> None:
    """Check a scenario against the Table-II platform contract.

    The same constraints the 16 canned scenarios satisfy: known site,
    every category resolvable to a Table-II node type with a positive
    count, a paper workload name and a known mode.  Raises ``ValueError``
    on violation.
    """
    network_for_site(scenario.site)
    if not scenario.counts:
        raise ValueError("scenario has no node groups")
    for cat, count in scenario.counts:
        node_type(scenario.site, cat)
        if count < 1:
            raise ValueError(f"count for category {cat!r} must be >= 1")
    if scenario.workload not in ("101", "128"):
        raise ValueError(f"unknown workload {scenario.workload!r}")
    if scenario.mode not in ("Real", "Simul"):
        raise ValueError(f"unknown mode {scenario.mode!r}")


def derive_platform_seed(root_seed: int, index: int) -> Tuple[int, int, int]:
    """Seed-sequence entropy of one fuzzed platform (pure, stable)."""
    return (int(root_seed), FUZZ_TAG, int(index))


def _sample_counts(
    rng: np.random.Generator, config: FuzzConfig
) -> List[Tuple[str, int]]:
    """Free node-group mix: 1-3 distinct categories, elastic pool size."""
    n_groups = int(rng.integers(config.min_groups, config.max_groups + 1))
    cats = sorted(
        (str(c) for c in rng.choice(["L", "M", "S"], size=n_groups,
                                    replace=False)),
        key=["L", "M", "S"].index,
    )
    total = int(rng.integers(config.min_nodes, config.max_nodes + 1))
    splits = rng.multinomial(total - n_groups, [1.0 / n_groups] * n_groups)
    return [(cat, 1 + int(extra)) for cat, extra in zip(cats, splits)]


def _anchor_counts(
    rng: np.random.Generator, index: int, config: FuzzConfig
) -> Tuple[str, List[Tuple[str, int]]]:
    """Mutated Table-II scenario, chosen by ``index`` via the locked
    ``all_scenarios()`` ordering, pool rescaled into the config bounds."""
    anchor = all_scenarios()[index % 16]
    counts = [[cat, count] for cat, count in anchor.counts]
    total = sum(c for _, c in counts)
    budget = int(rng.integers(config.min_nodes, config.max_nodes + 1))
    scaled = [
        [cat, max(1, round(c * budget / total))] for cat, c in counts
    ]
    # Jitter one group by +-1 node (keeping it alive).
    gi = int(rng.integers(len(scaled)))
    scaled[gi][1] = max(1, scaled[gi][1] + int(rng.integers(-1, 2)))
    return anchor.site, [(cat, int(c)) for cat, c in scaled]


def sample_platform(
    index: int, root_seed: int = 0, config: Optional[FuzzConfig] = None
) -> FuzzedPlatform:
    """Draw the ``index``-th fuzzed platform of a corpus.

    Deterministic: the draw depends only on ``(root_seed, index)`` and
    the config bounds.  See the module docstring for the sampled axes.
    """
    cfg = config if config is not None else FuzzConfig()
    rng = np.random.default_rng(derive_platform_seed(root_seed, index))

    family = FAMILIES[int(rng.integers(len(FAMILIES)))]
    if rng.random() < cfg.anchor_prob:
        site, counts = _anchor_counts(rng, index, cfg)
    else:
        site = ("G5K", "SD")[int(rng.integers(2))]
        counts = _sample_counts(rng, cfg)
    workload = ("101", "128")[int(rng.integers(2))]
    mode = "Real" if rng.random() < cfg.real_mode_prob else "Simul"
    scenario = Scenario(
        key=f"fz{index:04d}",
        site=site,
        counts=tuple(counts),
        workload=workload,
        mode=mode,
    )

    lo_f, hi_f = cfg.speed_ratio
    speed_factors = tuple(
        (cat, round(float(rng.uniform(lo_f, hi_f)), 3))
        for cat, _ in scenario.counts
    )
    lo_b, hi_b = cfg.bandwidth_ratio
    bandwidth_factor = round(float(rng.uniform(lo_b, hi_b)), 3)

    tiles = int(rng.integers(cfg.tiles[0], cfg.tiles[1] + 1))
    matrix_order = int(
        rng.integers(cfg.matrix_order[0], cfg.matrix_order[1] + 1)
    )

    n_total = scenario.total_nodes
    msr = None
    if family == "msr":
        per_node = int(rng.integers(
            cfg.msr_maps_per_node[0], cfg.msr_maps_per_node[1] + 1
        ))
        msr = MapShuffleReduceWorkload(
            maps=min(96, per_node * n_total),
            reduces=int(rng.integers(
                cfg.msr_reduces[0], min(cfg.msr_reduces[1], n_total) + 1
            )),
            record_mb=round(float(rng.uniform(*cfg.msr_record_mb)), 1),
            map_flops=round(float(rng.uniform(3e11, 1.8e12)), -8),
            reduce_flops=round(float(rng.uniform(1e12, 4.5e12)), -8),
            skew=round(float(rng.uniform(*cfg.msr_skew)), 2),
        )

    schedule = None
    if rng.random() < cfg.fault_prob:
        # Canned schedules need room for their crash fraction to leave a
        # usable pool; pools of >= min_nodes always qualify.
        name = SCHEDULE_NAMES[int(rng.integers(len(SCHEDULE_NAMES)))]
        schedule = canned_schedules(
            n_total, cfg.iterations, seed=int(rng.integers(2**31))
        )[name]

    return FuzzedPlatform(
        scenario=scenario,
        family=family,
        speed_factors=speed_factors,
        bandwidth_factor=bandwidth_factor,
        tiles=tiles,
        matrix_order=matrix_order,
        msr=msr,
        schedule=schedule,
        root_seed=int(root_seed),
        index=int(index),
    )


def sample_corpus(
    count: int,
    root_seed: int = 0,
    families: Optional[Tuple[str, ...]] = None,
    config: Optional[FuzzConfig] = None,
) -> List[FuzzedPlatform]:
    """A corpus of ``count`` platforms, optionally filtered by family.

    Filtering skips indices of other families while preserving each kept
    platform's ``(root_seed, index)`` identity, so a platform seen in a
    filtered corpus is bit-identical to the same index in the full one.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    wanted = tuple(families) if families else FAMILIES
    for f in wanted:
        if f not in FAMILIES:
            raise ValueError(f"unknown family {f!r}; known: {FAMILIES}")
    corpus: List[FuzzedPlatform] = []
    index = 0
    # Families are drawn uniformly, so a filtered corpus needs on the
    # order of count * len(FAMILIES) draws; the hard stop only guards
    # against a (config-impossible) starved filter.
    limit = count * 64
    while len(corpus) < count and index < limit:
        platform = sample_platform(index, root_seed, config)
        if platform.family in wanted:
            corpus.append(platform)
        index += 1
    if len(corpus) < count:
        raise RuntimeError("family filter starved the corpus")
    return corpus
