"""Differential-testing subsystem gating the flat-plan fast engine.

Every test in this package runs the same task graph through the
reference :class:`repro.runtime.Simulator` and the flat-plan
:class:`repro.runtime.FastSimulator` and demands **bit identity** (see
:mod:`tests.runtime.differential.oracle`):

* ``test_scenario_table`` -- the locked a..p scenario menu, plus the
  ``fifo`` policy and a jittered run under both policies;
* ``test_fuzz_corpus`` -- a >= 50-seed fuzzed corpus across both
  workload families (cholesky iterations + map/shuffle/reduce);
* ``test_adversarial`` -- hand-built DAGs aimed at the engine's
  tie-break and bookkeeping corners (cross-node chains, NIC
  contention, priority inversions and ties, heterogeneous ready sets);
* ``test_defects`` -- the seeded-defect harness: each engine mutation
  in ``repro.runtime.simfast.DEFECT_KINDS`` (``drop_transfer``,
  ``tie_break``) must be caught;
* ``test_batch_sweep`` -- :class:`repro.measure.batch.ScenarioBatch`
  against the naive per-configuration sweep.
"""
