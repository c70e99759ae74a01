"""A wrong expected value must show up as failed operations."""

import copy

import numpy as np

from perfbench.inputs import serve_inputs, tune_inputs
from perfbench.workloads import Context, run_population, tune_warm


def _banks():
    from repro.measure.bank import synthetic_bank

    return {key: synthetic_bank(lambda n, s=scale: 10.0 + s * (n - 4) ** 2,
                                range(2, 9), group_boundaries=(8,),
                                label=f"synthetic-{key}")
            for key, scale in (("b", 1.0), ("c", 0.5), ("m", 2.0))}


def _tune_ctx(tmp_path, expected, check_defaults):
    inputs = tune_inputs(0)
    inputs.update(scenarios=["b", "c"], strategies=["DC", "UCB"],
                  iterations=12)
    return Context(workload="tune-warm", inputs=inputs, expected=expected,
                   seconds=0.0, work_dir=tmp_path,
                   check_defaults=check_defaults, banks=_banks())


def test_tune_totals_match_then_a_corrupted_one_fails(tmp_path):
    first = _tune_ctx(tmp_path, {}, check_defaults=False)
    tune_warm(first)
    assert first.failed == 0
    expected = {"tune_totals": dict(first.seen_cells)}

    clean = _tune_ctx(tmp_path, expected, check_defaults=True)
    tune_warm(clean)
    assert clean.attempted > 0 and clean.failed == 0

    corrupted = copy.deepcopy(expected)
    cell = sorted(corrupted["tune_totals"])[0]
    corrupted["tune_totals"][cell] += 1.0
    bad = _tune_ctx(tmp_path, corrupted, check_defaults=True)
    tune_warm(bad)
    assert bad.failed / bad.attempted > 0
    assert any(cell in failure for failure in bad.failures)


def test_serve_digest_mismatch_fails(tmp_path):
    from repro.platform.scenarios import get_scenario
    from repro.serve.service import BankStore

    from perfbench.workloads import serve_mixed

    banks = _banks()
    store = BankStore()
    for key, bank in banks.items():
        store.put(store.scenario_fingerprint(get_scenario(key)), bank)
    inputs = serve_inputs(0)
    inputs["tenants"] = [t for t in inputs["tenants"]
                         if t["strategy"] in ("DC", "UCB")][:12]
    ctx = Context(workload="serve-mixed", inputs=inputs, expected={},
                  seconds=0.0, work_dir=tmp_path, check_defaults=False,
                  banks=banks, bank_store=store)
    digests = run_population(ctx, inputs["tenants"], 2, 0, False)["digests"]
    tenant = sorted(digests)[0]
    corrupted = dict(digests, **{tenant: "0" * 16})
    bad = Context(workload="serve-mixed", inputs=inputs,
                  expected={"serve_digests": corrupted}, seconds=0.0,
                  work_dir=tmp_path, check_defaults=True, banks=banks,
                  bank_store=store)
    serve_mixed(bad)
    assert bad.failed == 1 and bad.failed / bad.attempted > 0
    assert np.isfinite(bad.ops / bad.wall)
