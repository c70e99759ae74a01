"""The production sweep reproduces ``perfbench/expected.json`` in CI.

``test_expected_makespans.py`` holds the reference engine to the
committed table.  This test holds the path production and perfbench
actually run -- ``sweep_scenario``'s plan-batched serial sweep
(:class:`~repro.measure.batch.ScenarioBatch` binding one template per
configuration and running :class:`~repro.runtime.FastSimulator`) -- to
the same values at the same tile counts.  The bounded suite checks the
batched path at 16 tiles only.  Nothing is written: no duration cache,
no bank file.

Marked ``fullfidelity`` (93 configurations at 40/48 tiles); CI runs it
in the full-fidelity job.
"""

import json

import pytest

from repro.measure.sweep import sweep_scenario
from repro.platform import get_scenario

from .test_expected_makespans import EXPECTED

pytestmark = pytest.mark.fullfidelity


def test_batched_sweep_reproduces_committed_makespans(monkeypatch):
    expected = json.loads(EXPECTED.read_text())
    # Overrides the suite's 16-tile autouse pin.
    for workload, tiles in expected["tiles"].items():
        monkeypatch.setenv(f"REPRO_TILES_{workload}", tiles)
    swept = 0
    for key, by_n in sorted(expected["makespans"].items()):
        bank = sweep_scenario(get_scenario(key))
        assert sorted(by_n) == sorted(str(n) for n in bank.actions), key
        for n in bank.actions:
            assert bank.true_means[n] == by_n[str(n)], (key, n)
        swept += len(bank.actions)
    assert swept == 93
