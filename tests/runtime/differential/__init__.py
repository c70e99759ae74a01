"""Differential-testing subsystem gating the flat-plan fast engine.

Most tests in this package run the same task graph through the
reference :class:`repro.runtime.Simulator` and the flat-plan
:class:`repro.runtime.FastSimulator` and demand **bit identity** (see
:mod:`tests.runtime.differential.oracle`); the rest pin what the fast
engine's plan binding emits:

* ``test_scenario_table`` -- the locked a..p scenario menu, plus the
  mixed-precision graphs and 2-D (``n_gen``, ``n_fact``) plans;
* ``test_fuzz_corpus`` -- a >= 50-seed fuzzed corpus across both
  workload families (cholesky iterations + map/shuffle/reduce);
* ``test_adversarial`` -- hand-built DAGs aimed at the engine's
  tie-break and bookkeeping corners (cross-node chains, NIC
  contention, priority inversions and ties, heterogeneous ready sets,
  a pure WAR edge, initial pushes from the home), plus the pin that
  the b, c and m iteration graphs have no pure WAR/WAW edge;
* ``test_defects`` -- the seeded-defect harness: each engine mutation
  in ``repro.runtime.simfast.DEFECT_KINDS`` (``drop_transfer``,
  ``tie_break``, ``stale_send_min``, ``untracked``) must be caught;
* ``test_batch_sweep`` -- :class:`repro.measure.batch.ScenarioBatch`
  against the naive per-configuration sweep;
* ``test_push_plan`` -- the array-built eager-push plan against the
  per-read loop it replaced, kept there as the reference;
* ``test_work_counts`` -- exact push, transfer and byte counts of every
  swept configuration of scenario b.

The ``fullfidelity``-marked modules (``test_fullfidelity``,
``test_expected_makespans``, ``test_expected_sweep``) run at larger
tile counts in their own CI job.
"""
