"""Tests for the fault injector: determinism, identity, arithmetic.

The acceptance-grade property: an **empty schedule is the identity** --
running the harness with a stationary injector produces byte-identical
cells to running with no injector at all (same RNG draws, same totals,
same arrays).
"""

import numpy as np
import pytest

from repro.evaluate.parallel import plan_cells, run_cells
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    InterferenceBurst,
    NetworkDegradation,
    NodeCrash,
    NodeSlowdown,
    STATIONARY,
)
from repro.measure.bank import synthetic_bank

ACTIONS = tuple(range(1, 9))


def curve(n):
    return 30.0 / n + 0.4 * (n - 1)


@pytest.fixture
def bank():
    return synthetic_bank(curve, actions=ACTIONS, noise_sd=0.3, k=25,
                          seed=11, label="synth")


def cells_for(bank, strategies=("DC", "UCB"), reps=3):
    return plan_cells([bank.label], list(strategies), reps,
                      include_baselines=False)


def as_tuples(results):
    """Cell results as comparable plain tuples."""
    return [
        (r.cell, r.total, r.chosen.tolist(), r.durations.tolist())
        for r in results
    ]


class TestIdentity:
    def test_empty_schedule_is_byte_identical_to_no_injector(self, bank):
        cells = cells_for(bank)
        injector = FaultInjector(STATIONARY, bank.actions, 20)
        plain = run_cells({bank.label: bank}, cells, 20)
        faulted = run_cells({bank.label: bank}, cells, 20,
                            injector=injector)
        assert as_tuples(plain) == as_tuples(faulted)

    def test_inactive_faults_do_not_perturb(self, bank):
        # Faults whose window never opens must also be the identity.
        schedule = FaultSchedule(
            label="later",
            faults=(NodeCrash(node=8, start=500),
                    InterferenceBurst(magnitude_s=2.0, start=500)),
        )
        injector = FaultInjector(schedule, bank.actions, 20)
        for t in range(20):
            inj = injector.plan(t, 8)
            assert inj.scale == 1.0 and inj.shift == 0.0
            assert not inj.degraded and inj.effective_n == 8


class TestFeasibility:
    def test_crash_shrinks_feasible_space(self):
        schedule = FaultSchedule(
            label="c", faults=(NodeCrash(node=7, start=5),
                               NodeCrash(node=8, start=5, end=10)),
        )
        injector = FaultInjector(schedule, ACTIONS, 15)
        assert injector.max_feasible(0) == 8
        assert injector.max_feasible(5) == 6   # two nodes down
        assert injector.max_feasible(10) == 7  # node 8 recovered
        assert injector.feasible_actions(5) == tuple(range(1, 7))
        event = injector.event_for(5)
        assert event.max_feasible == 6 and event.crashed == (7, 8)

    def test_degraded_proposal_pays_worst_penalty(self):
        schedule = FaultSchedule(
            label="c", faults=(NodeCrash(node=8, start=0, penalty=1.5),
                               NodeCrash(node=7, start=0, penalty=2.0)),
        )
        injector = FaultInjector(schedule, ACTIONS, 5)
        inj = injector.plan(0, 8)
        assert inj.degraded and inj.effective_n == 6
        assert inj.scale == pytest.approx(2.0)
        # A feasible proposal pays nothing.
        ok = injector.plan(0, 5)
        assert not ok.degraded and ok.scale == 1.0

    def test_schedule_infeasible_for_bank_rejected(self):
        schedule = FaultSchedule(label="x", faults=(NodeCrash(node=99),))
        with pytest.raises(ValueError):
            FaultInjector(schedule, ACTIONS, 10)


class TestArithmetic:
    def test_slowdown_scales_only_including_actions(self):
        schedule = FaultSchedule(
            label="s",
            faults=(NodeSlowdown(node=4, gflops_factor=0.5),),
        )
        injector = FaultInjector(schedule, ACTIONS, 5)
        assert injector.plan(0, 6).scale == pytest.approx(2.0)
        assert injector.plan(0, 4).scale == pytest.approx(2.0)
        assert injector.plan(0, 3).scale == 1.0  # dodges the straggler

    def test_network_degradation_hits_large_actions_harder(self):
        schedule = FaultSchedule(
            label="n",
            faults=(NetworkDegradation(bandwidth_factor=0.5,
                                       comm_share=0.4),),
        )
        injector = FaultInjector(schedule, ACTIONS, 5)
        s1 = injector.plan(0, 1).scale
        s4 = injector.plan(0, 4).scale
        s8 = injector.plan(0, 8).scale
        assert s1 == 1.0          # single node: no communication
        assert s1 < s4 < s8
        assert s8 == pytest.approx(1.0 + 0.4 * (1 / 0.5 - 1.0))

    def test_interference_shift_and_jitter_determinism(self):
        schedule = FaultSchedule(
            label="i",
            faults=(InterferenceBurst(magnitude_s=1.5, start=2, end=8,
                                      jitter=0.4),),
            seed=9,
        )
        a = FaultInjector(schedule, ACTIONS, 10)
        b = FaultInjector(schedule, ACTIONS, 10)
        shifts_a = [a.plan(t, 4).shift for t in range(10)]
        shifts_b = [b.plan(t, 4).shift for t in range(10)]
        assert shifts_a == shifts_b
        assert shifts_a[0] == 0.0 and shifts_a[8] == 0.0
        for t in range(2, 8):
            assert 1.5 * 0.6 <= shifts_a[t] <= 1.5 * 1.4
        # A different seed draws different jitter.
        reseeded = FaultInjector(
            FaultSchedule(label="i", faults=schedule.faults, seed=10),
            ACTIONS, 10,
        )
        assert [reseeded.plan(t, 4).shift for t in range(2, 8)] != shifts_a[2:8]

    def test_perturbed_duration_never_negative(self):
        schedule = FaultSchedule(
            label="odd", faults=(InterferenceBurst(magnitude_s=1.0),),
        )
        injector = FaultInjector(schedule, ACTIONS, 3)
        assert injector.apply(injector.plan(0, 4), 0.0) >= 0.0


class TestRegretQueries:
    def test_expected_duration_matches_plan(self):
        schedule = FaultSchedule(
            label="c", faults=(NodeCrash(node=8, start=0, penalty=1.5),),
        )
        injector = FaultInjector(schedule, ACTIONS, 5)
        means = {n: curve(n) for n in ACTIONS}
        # Proposing the crashed 8 runs as 7 with the penalty folded in.
        assert injector.expected_duration(0, 8, means) == pytest.approx(
            curve(7) * 1.5
        )
        assert injector.expected_duration(0, 5, means) == pytest.approx(
            curve(5)
        )

    def test_oracle_plays_best_feasible(self):
        schedule = FaultSchedule(
            label="c", faults=(NodeCrash(node=8, start=0),
                               NodeCrash(node=7, start=0)),
        )
        injector = FaultInjector(schedule, ACTIONS, 5)
        means = {n: curve(n) for n in ACTIONS}
        best, duration = injector.oracle_duration(0, means)
        assert best == 6                        # best surviving action
        assert duration == pytest.approx(curve(6))

    def test_fingerprint_is_the_schedules(self):
        schedule = FaultSchedule(label="c", faults=(NodeCrash(node=8),))
        injector = FaultInjector(schedule, ACTIONS, 5)
        assert injector.fingerprint() == schedule.fingerprint()
