"""Seeded input generation for the three benchmark workloads.

Every input a workload hands to the program is produced here from the
workload name and the ``--seed`` argument alone, as plain JSON-able data:
the same seed gives byte-identical inputs (``canonical``), a different
seed gives different ones.  The program under test never sees the seed
itself, only these generated inputs.

The benchmark owns its workload definition: scenario keys, strategy
lists and the serve strategy mix are constants of this file, so a
change to the program's own defaults cannot silently change what is
measured.
"""

from __future__ import annotations

import json
import zlib
from typing import Dict, List

import numpy as np

WORKLOADS = ("sweep-cold", "tune-warm", "serve-mixed")

#: Seed at which the committed per-cell totals and serve digests apply.
DEFAULT_SEED = 0

#: Scenarios every workload uses: G5K 2L-6M-6S (b), SD 10L-10S at
#: workload 128 (c) and the homogeneous SD 64L (m).
SCENARIOS = ("b", "c", "m")

#: The paper's seven strategies, in Figure 6 order.
PAPER_STRATEGIES = (
    "DC", "Right-Left", "Brent", "UCB", "UCB-struct", "GP-UCB",
    "GP-discontinuous",
)

#: Weighted serve strategy mix (the ``repro serve bench`` default).
SERVE_MIX = (
    ("DC", 5), ("Right-Left", 4), ("Brent", 4), ("UCB", 6),
    ("UCB-struct", 4), ("SANN", 2), ("StochasticApprox", 2),
    ("Resilient(UCB)", 2), ("GP-UCB", 1), ("GP-discontinuous", 1),
)

#: Figure 6 protocol length.
ITERATIONS = 127

#: Noise-augmentation seed of the warm banks (``cached_bank`` default).
WARM_BANK_SEED = 12345

#: tune-warm cycle ``k`` evaluates with base seed ``seed + k % TUNE_ROTATION``.
TUNE_ROTATION = 4

SERVE_TENANTS = 500
SERVE_SHARDS = 2
SERVE_ARRIVAL_WINDOW = 64
SERVE_WARM_MAX = 24
SERVE_ROUNDS = (8, 24)


def _rng(workload: str, seed: int) -> np.random.Generator:
    """Generator keyed by (seed, workload) -- never the salted ``hash``."""
    return np.random.default_rng(
        (int(seed), zlib.crc32(workload.encode("utf-8"))))


def sweep_inputs(seed: int) -> Dict[str, object]:
    """Cold sweep: noise seed, spill-rebuild order, reference sample."""
    rng = _rng("sweep-cold", seed)
    start = int(rng.integers(len(SCENARIOS)))
    return {
        "workload": "sweep-cold",
        "scenarios": list(SCENARIOS),
        "augment_seed": WARM_BANK_SEED + int(seed),
        # Scenario rebuilt from the reloaded spill after pass p is
        # rebuild[p % 3]: every scenario gets its turn.
        "rebuild": [SCENARIOS[(start + i) % len(SCENARIOS)]
                    for i in range(len(SCENARIOS))],
        # Configurations per scenario timed on both engines (traced
        # runs only): indices into the scenario's action list.
        "reference_sample": {key: [int(i) for i in rng.integers(1 << 16,
                                                                 size=2)]
                             for key in SCENARIOS},
    }


def tune_inputs(seed: int) -> Dict[str, object]:
    """Warm tuning: Figure 6 cells and the cells replayed after timing."""
    rng = _rng("tune-warm", seed)
    cheap = [s for s in PAPER_STRATEGIES if s != "GP-UCB"]
    replay = [
        [SCENARIOS[int(rng.integers(len(SCENARIOS)))],
         cheap[int(rng.integers(len(cheap)))]]
        for _ in range(3)
    ]
    return {
        "workload": "tune-warm",
        "scenarios": list(SCENARIOS),
        "strategies": list(PAPER_STRATEGIES),
        "iterations": ITERATIONS,
        "base_seeds": [int(seed) + k for k in range(TUNE_ROTATION)],
        "replay": replay,
    }


def _spread(lo: int, hi: int, count: int, rng) -> List[int]:
    """``count`` values evenly spread over [lo, hi], in seeded order."""
    values = np.rint(np.linspace(lo, hi, count)).astype(int)
    return [int(v) for v in rng.permutation(values)]


def serve_inputs(seed: int) -> Dict[str, object]:
    """Served tenant mix: one population, replayed on every pass.

    The composition is the same at every seed -- each strategy gets its
    share of the mix, and within a strategy the scenarios, arrival
    ticks, warm backlogs and round counts take evenly spread values --
    and the seed decides which tenant gets which.  A GP tenant costs
    hundreds of cheap ones, so a sampled mix would make the work per
    pass depend on the seed.
    """
    rng = _rng("serve-mixed", seed)
    weight_sum = sum(weight for _, weight in SERVE_MIX)
    shares = [SERVE_TENANTS * weight / weight_sum for _, weight in SERVE_MIX]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(shares)),
                          key=lambda i: (counts[i] - shares[i], i))
    for i in by_remainder[:SERVE_TENANTS - sum(counts)]:
        counts[i] += 1
    lo, hi = SERVE_ROUNDS
    rows = []
    for (name, _), count in zip(SERVE_MIX, counts):
        scenarios = [SCENARIOS[i % len(SCENARIOS)] for i in range(count)]
        rows += [
            {"scenario": scenario, "strategy": name, "arrival": arrival,
             "warm": warm, "rounds": rounds}
            for scenario, arrival, warm, rounds in zip(
                [scenarios[i] for i in rng.permutation(count)],
                _spread(0, SERVE_ARRIVAL_WINDOW - 1, count, rng),
                _spread(0, SERVE_WARM_MAX, count, rng),
                _spread(lo, hi, count, rng))
        ]
    tenants = [dict(tenant=f"t{index:04d}", **rows[int(i)])
               for index, i in enumerate(rng.permutation(len(rows)))]
    replay = sorted(
        tenants[int(i)]["tenant"]
        for i in rng.choice(SERVE_TENANTS, size=4, replace=False))
    return {
        "workload": "serve-mixed",
        "base_seed": int(seed),
        "shards": SERVE_SHARDS,
        "tenants": tenants,
        "replay": replay,
    }


def generate(workload: str, seed: int) -> Dict[str, object]:
    """Inputs of one workload at one seed."""
    if workload == "sweep-cold":
        return sweep_inputs(seed)
    if workload == "tune-warm":
        return tune_inputs(seed)
    if workload == "serve-mixed":
        return serve_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}; expected {WORKLOADS}")


def canonical(inputs: Dict[str, object]) -> bytes:
    """Byte encoding of generated inputs (what the determinism test pins)."""
    return json.dumps(inputs, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
