"""Figure 7 overhead regression: absolute bound + family ordering.

The paper's claim is that strategy computation is negligible against
10-30 s iterations (0.04-0.06 s/iteration for the GP online).  Two
regressions guard it:

* every strategy stays under a generous absolute per-iteration bound on
  CI hardware, and
* the qualitative cost ordering holds: heuristics < multi-armed bandits
  < GP fitting (per-family mean), each by a comfortable factor.

Timings use the strategies' self-timed ``Strategy.overheads``, run
through the Figure 6 resampling loop on a synthetic bank, so no
simulator time pollutes the measurement.
"""

import numpy as np
import pytest

from repro.evaluate import measure_overhead
from repro.evaluate.parallel import derive_cell_seed, run_cell_trace
from repro.measure import synthetic_bank
from repro.strategies import make_strategy

#: Generous CI bound: per-iteration strategy cost, seconds.  The paper
#: reports 0.04-0.06 s for the GP; anything near 0.25 s is a regression.
MAX_PER_ITERATION_S = 0.25

FAMILIES = {
    "heuristics": ("DC", "Right-Left"),
    "bandits": ("UCB", "UCB-struct"),
    "gp": ("GP-UCB", "GP-discontinuous"),
}


def strategy_overheads(names, bank, iterations, reps):
    """Mean per-iteration overhead (seconds) of each named strategy."""
    out = {}
    for name in names:
        per_iter = []
        for rep in range(reps):
            rng = np.random.default_rng(derive_cell_seed(name, rep))
            strategy = make_strategy(name, bank.action_space(), seed=rep)
            run_cell_trace(strategy, bank, iterations, rng)
            per_iter.extend(strategy.overheads)
        out[name] = float(np.mean(per_iter))
    return out


@pytest.fixture(scope="module")
def overheads():
    bank = synthetic_bank(
        f=lambda n: 10.0 + 30.0 / n + 0.7 * n,
        actions=range(2, 13),
        lp=lambda n: 30.0 / n + 1.0,
        group_boundaries=(2, 6, 12),
        noise_sd=0.4,
        seed=3,
        label="synthetic overhead",
    )
    names = [n for members in FAMILIES.values() for n in members]
    return strategy_overheads(names, bank, iterations=40, reps=3)


class TestAbsoluteBound:
    def test_every_strategy_under_ci_bound(self, overheads):
        for name, per_iter in overheads.items():
            assert 0.0 <= per_iter < MAX_PER_ITERATION_S, (
                f"{name}: {per_iter:.4f} s/iteration exceeds the "
                f"{MAX_PER_ITERATION_S} s regression bound"
            )


class TestFamilyOrdering:
    def test_heuristics_cheaper_than_bandits_cheaper_than_gp(self, overheads):
        means = {
            family: float(np.mean([overheads[n] for n in members]))
            for family, members in FAMILIES.items()
        }
        assert means["heuristics"] < means["bandits"] < means["gp"], means

    def test_gp_dominates_by_a_clear_factor(self, overheads):
        """GP fitting is the expensive family (Fig 7's subject), not a tie."""
        gp = min(overheads[n] for n in FAMILIES["gp"])
        cheap = max(overheads[n] for n in FAMILIES["heuristics"])
        assert gp > 2.0 * cheap, (gp, cheap)


class TestMeasureOverheadOnline:
    """The online (in-application) Figure 7 measurement stays sane."""

    @pytest.fixture(scope="class", autouse=True)
    def tiny(self):
        import os

        old = dict(os.environ)
        os.environ["REPRO_TILES_101"] = "8"
        os.environ["REPRO_TILES_128"] = "8"
        yield
        os.environ.clear()
        os.environ.update(old)

    def test_steady_state_within_bound_and_relative_negligible(self):
        result = measure_overhead(reps=2, iterations=12)
        assert result.steady_state_mean < MAX_PER_ITERATION_S
        # Overhead is negligible against simulated 10-30 s iterations.
        assert result.relative_overhead < 0.05
        # Self-timed per-iteration overheads are all non-negative.
        assert (result.per_iteration >= 0.0).all()
