"""Regenerate ``perfbench/expected.json`` with the reference engine.

    python3 perfbench/make_expected.py

The makespans of every swept (scenario, n) come from the reference
``Simulator`` (``REPRO_SIMFAST=0``) and do not depend on the seed.  The
tune-warm per-cell totals and the serve-mixed per-tenant proposal
digests are those of the default seed, computed on banks built by the
same reference sweeps.  Run it only when the program's outputs are
meant to change; the benchmark counts every disagreement with this file
as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import run  # noqa: E402


def main() -> int:
    run.pin_environment(run.WORK_DIR / "expected-cache")
    os.environ["REPRO_SIMFAST"] = "0"
    run.import_repro()
    from repro.evaluate.runner import evaluate_scenario
    from repro.measure.sweep import sweep_scenario
    from repro.platform.scenarios import get_scenario
    from repro.serve.service import BankStore

    from perfbench import inputs
    from perfbench.workloads import Context, _cell_totals, run_population

    banks = {key: sweep_scenario(get_scenario(key),
                                 seed=inputs.WARM_BANK_SEED)
             for key in inputs.SCENARIOS}
    makespans = {key: {str(n): bank.true_means[n] for n in bank.actions}
                 for key, bank in banks.items()}

    tune = inputs.tune_inputs(inputs.DEFAULT_SEED)
    totals = {}
    for base_seed in tune["base_seeds"]:
        for key in tune["scenarios"]:
            evaluation = evaluate_scenario(
                banks[key], tune["strategies"], iterations=tune["iterations"],
                reps=1, base_seed=base_seed, workers=1)
            for name, total in _cell_totals(evaluation,
                                            tune["strategies"]).items():
                totals[f"{key}/{name}/{base_seed}"] = total

    serve = inputs.serve_inputs(inputs.DEFAULT_SEED)
    store = BankStore()
    for key in inputs.SCENARIOS:
        store.put(store.scenario_fingerprint(get_scenario(key)), banks[key])
    ctx = Context(workload="serve-mixed", inputs=serve, expected={},
                  seconds=0.0, work_dir=run.WORK_DIR, check_defaults=False,
                  banks=banks, bank_store=store)
    out = run_population(ctx, serve["tenants"], serve["shards"],
                         serve["base_seed"], False)
    if out["errors"] or out["closed"] != len(serve["tenants"]):
        raise SystemExit("serve population did not complete cleanly")

    payload = {
        "about": "Expected outputs; regenerate with perfbench/make_expected.py",
        "engine": "reference Simulator (REPRO_SIMFAST=0)",
        "tiles": {"101": os.environ["REPRO_TILES_101"],
                  "128": os.environ["REPRO_TILES_128"]},
        "default_seed": inputs.DEFAULT_SEED,
        "makespans": makespans,
        "tune_totals": totals,
        "serve_digests": out["digests"],
    }
    run.EXPECTED.write_text(json.dumps(payload, indent=1, sort_keys=True)
                            + "\n")
    print(f"wrote {run.EXPECTED}: {sum(map(len, makespans.values()))} "
          f"makespans, {len(totals)} cells, {len(out['digests'])} tenants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
