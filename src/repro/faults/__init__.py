"""repro.faults: deterministic fault injection and resilience.

The paper's strategies assume a stationary platform; this package opens
the non-stationary experiment axis the ROADMAP asks for, in four layers:

* :mod:`repro.faults.models` -- declarative, JSON-serializable fault
  schedules (stragglers, crashes, interference bursts, network
  degradation), content-fingerprinted and seed-deterministic;
* :mod:`repro.faults.injector` -- applies a schedule to resampled bank
  durations as a pure function of ``(iteration, action)``, so every
  cell is perturbed identically;
* :mod:`repro.faults.detector` -- online Page-Hinkley change-point
  detection with a pinned stationary false-positive bound;
* :mod:`repro.faults.resilience` -- the ``Resilient(<strategy>)``
  wrapper: bounded re-exploration on detected change, action-space
  contraction on crashes, retry-with-backoff on transient failures.

The campaign driver comparing raw vs. resilient strategies lives in
:mod:`repro.evaluate.faults_campaign` (it needs the evaluation harness,
which this package must not import); the ``repro faults`` CLI fronts it.
"""

from .detector import Alarm, PageHinkleyDetector, STATIONARY_FP_BOUND
from .injector import FaultEvent, FaultInjector, Injection
from .models import (
    FAULT_KINDS,
    FAULT_SCHEMA_VERSION,
    FaultSchedule,
    InterferenceBurst,
    NetworkDegradation,
    NodeCrash,
    NodeSlowdown,
    STATIONARY,
    canned_schedules,
    fault_from_dict,
    fault_to_dict,
)
from .resilience import ResilientStrategy, resilient_name

__all__ = [
    "Alarm",
    "FAULT_KINDS",
    "FAULT_SCHEMA_VERSION",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "Injection",
    "InterferenceBurst",
    "NetworkDegradation",
    "NodeCrash",
    "NodeSlowdown",
    "PageHinkleyDetector",
    "ResilientStrategy",
    "STATIONARY",
    "STATIONARY_FP_BOUND",
    "canned_schedules",
    "fault_from_dict",
    "fault_to_dict",
    "resilient_name",
]
