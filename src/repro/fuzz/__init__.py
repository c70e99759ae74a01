"""repro.fuzz: seeded scenario/workload fuzzing and property testing.

The paper's evaluation is conditioned on 16 fixed Table-II Cholesky
scenarios; this package turns the strategy suite from example-based to
property-based, in four layers:

* :mod:`repro.fuzz.platforms` -- deterministic sampling of heterogeneous
  platform scenarios (node-group mixes, speed ratios, bandwidth factors,
  elastic pool sizes, optional fault schedules) that validate against
  the canned :class:`repro.platform.scenarios.Scenario` contract;
* :mod:`repro.fuzz.workloads` -- a non-Cholesky multi-phase DAG family
  (map/shuffle/reduce with dependency-driven stragglers) behind the same
  TaskGraph/Simulator/bank abstractions as the Cholesky path;
* :mod:`repro.fuzz.properties` -- every registered strategy over a
  fuzzed corpus, checked for bounded regret against the clairvoyant
  oracle, monotone cumulative regret and bit-identical replay;
* :mod:`repro.fuzz.shrink` -- greedy minimization of failing scenarios
  and promotion to committed canned regressions under
  ``tests/goldens/fuzz/``.

The ``repro fuzz run / replay / promote`` CLI fronts all of it.
"""

from .platforms import (
    FAMILIES,
    FUZZ_SCHEMA_VERSION,
    FUZZ_TAG,
    FuzzConfig,
    FuzzedPlatform,
    derive_platform_seed,
    sample_corpus,
    sample_platform,
    validate_scenario,
)
from .properties import (
    ADAPTIVE_BASES,
    CHECKS,
    DEFAULT_REGRET_BOUND,
    PropertyConfig,
    PropertyFailure,
    PropertyReport,
    build_bank,
    check_platform,
    regret_bound_for,
    regret_ratio,
    run_properties,
)
from .shrink import (
    GOLDEN_DIR,
    ShrinkResult,
    golden_payload,
    load_golden,
    promote,
    replay_golden,
    shrink,
)
from .workloads import (
    MSR_PHASES,
    MapShuffleReduceWorkload,
    MSRApp,
    build_msr_graph,
    msr_perfmodel,
)

__all__ = [
    "ADAPTIVE_BASES",
    "CHECKS",
    "DEFAULT_REGRET_BOUND",
    "FAMILIES",
    "FUZZ_SCHEMA_VERSION",
    "FUZZ_TAG",
    "FuzzConfig",
    "FuzzedPlatform",
    "GOLDEN_DIR",
    "MSRApp",
    "MSR_PHASES",
    "MapShuffleReduceWorkload",
    "PropertyConfig",
    "PropertyFailure",
    "PropertyReport",
    "ShrinkResult",
    "build_bank",
    "build_msr_graph",
    "check_platform",
    "derive_platform_seed",
    "golden_payload",
    "load_golden",
    "msr_perfmodel",
    "promote",
    "regret_bound_for",
    "regret_ratio",
    "replay_golden",
    "run_properties",
    "sample_corpus",
    "sample_platform",
    "shrink",
    "validate_scenario",
]
