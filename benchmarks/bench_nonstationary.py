"""Non-stationary adaptation -- the paper's future work, implemented.

Section VIII: "further investigation is required to propose or adapt the
GP strategies to non-stationary scenarios".  This bench builds a
drifting platform from two real scenario banks ((i)'s behaviour suddenly
degraded by a factor emulating network sharing) and compares the frozen
GP-discontinuous with the repo's two non-stationary mechanisms: the
sliding-window variant and the change-detecting ``Resilient(...)``
wrapper of the fault subsystem.
"""

import numpy as np
from conftest import emit

from repro import cached_bank, get_scenario
from repro.measure import DriftingBank, MeasurementBank
from repro.strategies import (
    GPDiscontinuousStrategy,
    WindowedGPDiscontinuousStrategy,
    make_strategy,
)


def resilient_gp(space, seed):
    return make_strategy("Resilient(GP-discontinuous)", space, seed)


def degraded(bank: MeasurementBank, factor: float = 2.0) -> MeasurementBank:
    """A regime where the fast (few-node) configurations degrade.

    Models e.g. the fastest nodes being shared with another job: small
    configurations slow down by ``factor``, the all-nodes end is barely
    affected -- so the optimum *moves right* and a frozen model keeps
    exploiting a stale optimum.
    """
    actions = bank.actions
    lo, hi = actions[0], actions[-1]

    def scale(n):
        return factor - (factor - 1.0) * (n - lo) / max(hi - lo, 1)

    return MeasurementBank(
        label=bank.label + " degraded",
        actions=actions,
        samples={n: bank.samples[n] * scale(n) for n in actions},
        lp=dict(bank.lp),
        group_boundaries=bank.group_boundaries,
        true_means={n: bank.true_means[n] * scale(n) for n in actions},
    )


def total_after_switch(strategy_cls, drift, iterations, switch, reps=8):
    totals = []
    for rep in range(reps):
        drift.reset()
        rng = np.random.default_rng((rep, 0xD21F7))
        strategy = strategy_cls(drift.action_space(), seed=rep)
        late = 0.0
        for it in range(iterations):
            n = strategy.propose()
            y = drift.resample(n, rng)
            strategy.observe(n, y)
            if it >= switch:
                late += y
        totals.append(late)
    return float(np.mean(totals))


def test_nonstationary_windowed_adaptation(benchmark):
    bank = cached_bank(get_scenario("i"))
    after = degraded(bank)
    switch, horizon = 60, 160

    def run():
        out = {}
        for cls, label in (
            (GPDiscontinuousStrategy, "frozen GP-discontinuous"),
            (WindowedGPDiscontinuousStrategy, "windowed GP-discontinuous"),
            (resilient_gp, "Resilient(GP-discontinuous)"),
        ):
            drift = DriftingBank(bank, after, switch_at=switch)
            out[label] = total_after_switch(cls, drift, horizon, switch)
        # Clairvoyant post-switch reference.
        best_after = after.best_action()
        out["oracle (new regime)"] = after.mean(best_after) * (horizon - switch)
        return out

    totals = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [f"regime switch at iteration {switch} of {horizon}",
             f"new-regime optimum: n = {after.best_action()}"]
    for label, total in totals.items():
        lines.append(f"  {label:<28} post-switch total {total:9.1f} s")
    emit("nonstationary", "\n".join(lines))

    # The windowed variant should not be worse than the frozen one after
    # the drift (and both should beat doing nothing only modestly; the
    # oracle bounds from below).
    assert totals["windowed GP-discontinuous"] <= totals["frozen GP-discontinuous"] * 1.05
    assert totals["windowed GP-discontinuous"] >= totals["oracle (new regime)"] * 0.98
