"""Tests for the online change-point detector.

The headline here is the **pinned stationary false-positive bound**: on
30 stationary Gaussian repetitions of the Figure 6 shape (127
iterations), the default Page-Hinkley configuration may alarm on at most
``STATIONARY_FP_BOUND`` of them.  Loosening the bound is an interface
change (the resilience layer's re-exploration budget is calibrated
against it).
"""

import numpy as np
import pytest

from repro.faults import PageHinkleyDetector, STATIONARY_FP_BOUND

#: The Figure 6 evaluation shape the bound is pinned on.
REPS = 30
ITERATIONS = 127


def feed(detector, values):
    """Feed a sequence; return indices where the detector alarmed."""
    return [i for i, v in enumerate(values) if detector.update(v)]


class TestPageHinkley:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PageHinkleyDetector(delta=-0.1)
        with pytest.raises(ValueError):
            PageHinkleyDetector(threshold=0.0)
        with pytest.raises(ValueError):
            PageHinkleyDetector(burn_in=1)

    def test_detects_upward_shift(self):
        rng = np.random.default_rng(1)
        trace = np.concatenate([
            10.0 + rng.normal(0.0, 0.5, 40),
            14.0 + rng.normal(0.0, 0.5, 40),
        ])
        detector = PageHinkleyDetector()
        hits = feed(detector, trace)
        assert hits, "a +8 sigma mean shift must be detected"
        assert 40 <= hits[0] < 60, "detection should follow the shift closely"
        assert detector.alarms[0].direction == "up"

    def test_detects_downward_shift_two_sided(self):
        rng = np.random.default_rng(2)
        trace = np.concatenate([
            14.0 + rng.normal(0.0, 0.5, 40),
            10.0 + rng.normal(0.0, 0.5, 40),
        ])
        hits = feed(PageHinkleyDetector(), trace)
        assert hits and 40 <= hits[0] < 60

    def test_one_sided_ignores_downward_shift(self):
        rng = np.random.default_rng(3)
        trace = np.concatenate([
            14.0 + rng.normal(0.0, 0.5, 40),
            10.0 + rng.normal(0.0, 0.5, 40),
        ])
        assert feed(PageHinkleyDetector(two_sided=False), trace) == []

    def test_resets_after_alarm_and_redetects(self):
        rng = np.random.default_rng(4)
        trace = np.concatenate([
            10.0 + rng.normal(0.0, 0.3, 30),
            15.0 + rng.normal(0.0, 0.3, 30),
            10.0 + rng.normal(0.0, 0.3, 30),
        ])
        detector = PageHinkleyDetector()
        hits = feed(detector, trace)
        assert len(hits) >= 2, "onset and clearing must both alarm"
        assert detector.alarms[0].direction == "up"
        assert detector.alarms[-1].direction == "down"
        assert detector.observations == 90

    def test_scale_relative_thresholds(self):
        # The same configuration must work regardless of the stream's
        # absolute magnitude: scale the whole trace 100x, same alarms.
        rng = np.random.default_rng(5)
        base = np.concatenate([
            10.0 + rng.normal(0.0, 0.5, 40),
            14.0 + rng.normal(0.0, 0.5, 40),
        ])
        hits_small = feed(PageHinkleyDetector(), base)
        hits_large = feed(PageHinkleyDetector(), base * 100.0)
        assert hits_small == hits_large

    def test_constant_stream_never_alarms(self):
        detector = PageHinkleyDetector()
        assert feed(detector, [7.0] * 100) == []

    def test_stationary_false_positive_bound(self):
        """The pinned bound: <= STATIONARY_FP_BOUND of 30 stationary reps."""
        tripped = 0
        for rep in range(REPS):
            rng = np.random.default_rng((2026, rep))
            trace = 10.0 + rng.normal(0.0, 0.5, ITERATIONS)
            if feed(PageHinkleyDetector(), trace):
                tripped += 1
        assert tripped / REPS <= STATIONARY_FP_BOUND, (
            f"{tripped}/{REPS} stationary repetitions alarmed; the pinned "
            f"bound is {STATIONARY_FP_BOUND:.0%}"
        )
