"""Ablation study -- which GP-discontinuous ingredient buys what.

Not a paper figure, but the paper motivates each ingredient separately
(Section IV-D): the LP bound prunes hopeless configurations, the
LP-residual trend linearizes the learning problem, and the group dummies
absorb the discontinuities.  This bench removes one ingredient at a time
on two discontinuity-heavy scenarios ((i) and (p)) and reports the gain
each variant achieves.
"""

import numpy as np
from conftest import bench_reps, emit

from repro import cached_bank, get_scenario
from repro.evaluate import evaluate_scenario, format_table
from repro.evaluate.runner import run_strategy_once
from repro.strategies import GPDiscontinuousStrategy

VARIANTS = [
    ("full", {}),
    ("no LP bound", {"use_bound": False}),
    ("no group dummies", {"use_dummies": False}),
    ("no LP-residual trend", {"model_residual": False}),
    ("none (plain GP, linear trend)", {
        "use_bound": False, "use_dummies": False, "model_residual": False,
    }),
]


def _evaluate_variant(bank, kwargs, reps, iterations=127):
    space = bank.action_space()
    totals = []
    for rep in range(reps):
        rng = np.random.default_rng((rep, 0xAB1A))
        strategy = GPDiscontinuousStrategy(space, seed=rep, **kwargs)
        totals.append(run_strategy_once(strategy, bank, iterations, rng))
    return float(np.mean(totals))


def test_ablation_gp_discontinuous(benchmark):
    reps = max(4, bench_reps() // 2)
    banks = {key: cached_bank(get_scenario(key)) for key in ("i", "p")}

    def run_all():
        out = {}
        for key, bank in banks.items():
            baseline = evaluate_scenario(
                bank, strategies=(), iterations=127, reps=reps
            ).all_nodes_mean
            out[key] = {
                name: (baseline - _evaluate_variant(bank, kwargs, reps))
                / baseline * 100.0
                for name, kwargs in VARIANTS
            }
        return out

    gains = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [name] + [f"{gains[key][name]:+.1f}%" for key in sorted(gains)]
        for name, _ in VARIANTS
    ]
    text = format_table(["variant"] + [f"({k}) gain" for k in sorted(gains)], rows)
    emit("ablation", text)

    # The full version is not dominated by the fully-ablated one.
    for key in gains:
        assert gains[key]["full"] >= gains[key][VARIANTS[-1][0]] - 3.0
