"""Tests for the fault campaign driver.

The headline is the ISSUE's acceptance criterion: under the canned
``crash`` schedule, ``Resilient(GP-discontinuous)`` achieves *strictly
lower* cumulative expected regret than raw ``GP-discontinuous``.
"""

import json

import pytest

from repro.evaluate.faults_campaign import (
    METRIC_UNITS,
    CampaignRow,
    campaign_metrics,
    campaign_strategies,
    campaign_table,
    cumulative_fault_regret,
    run_campaign,
    write_campaign_report,
)
from repro.faults import FaultInjector, canned_schedules
from repro.measure.bank import synthetic_bank

ACTIONS = tuple(range(1, 9))
ITERATIONS = 30


def curve(n):
    return 30.0 / n + 0.4 * (n - 1)


def make_bank():
    return synthetic_bank(curve, actions=ACTIONS, noise_sd=0.3, k=40,
                          seed=7, label="synth")


@pytest.fixture(scope="module")
def bank():
    return make_bank()


@pytest.fixture(scope="module")
def crash_campaign(bank):
    """One campaign under the canned crash schedule, run once per module."""
    canned = canned_schedules(8, ITERATIONS)
    return run_campaign(
        bank,
        schedules={"crash": canned["crash"]},
        strategies=("GP-discontinuous", "Resilient(GP-discontinuous)"),
        iterations=ITERATIONS,
        reps=3,
    )


class TestAcceptance:
    def test_resilient_gp_beats_raw_under_crash(self, crash_campaign):
        raw = crash_campaign.row("crash", "GP-discontinuous")
        wrapped = crash_campaign.row("crash", "Resilient(GP-discontinuous)")
        assert wrapped.mean_regret < raw.mean_regret, (
            f"resilient regret {wrapped.mean_regret:.2f} must beat raw "
            f"{raw.mean_regret:.2f}"
        )

    def test_resilient_never_proposes_crashed_nodes(self, crash_campaign):
        # The raw strategy keeps proposing the crashed optimum and pays
        # the degraded penalty; the wrapper contracts its space instead.
        raw = crash_campaign.row("crash", "GP-discontinuous")
        wrapped = crash_campaign.row("crash", "Resilient(GP-discontinuous)")
        assert raw.degraded_frac > 0.0
        assert wrapped.degraded_frac == 0.0

    def test_improvements_reports_the_pair(self, crash_campaign):
        imps = crash_campaign.improvements()
        assert len(imps) == 1
        imp = imps[0]
        assert imp["schedule"] == "crash"
        assert imp["strategy"] == "GP-discontinuous"
        assert imp["improved"] is True
        assert imp["resilient_regret"] < imp["raw_regret"]


class TestDeterminism:
    def test_fingerprints_recorded_per_schedule(self, crash_campaign):
        canned = canned_schedules(8, ITERATIONS)
        assert crash_campaign.fingerprints == {
            "crash": canned["crash"].fingerprint()
        }


class TestRegretAccounting:
    def test_oracle_play_has_zero_regret(self):
        canned = canned_schedules(8, 20)
        injector = FaultInjector(canned["crash"], ACTIONS, 20)
        means = {n: curve(n) for n in ACTIONS}
        oracle_actions = [
            injector.oracle_duration(t, means)[0] for t in range(20)
        ]
        assert cumulative_fault_regret(
            injector, oracle_actions, means
        ) == pytest.approx(0.0, abs=1e-12)

    def test_any_other_play_has_positive_regret(self):
        canned = canned_schedules(8, 20)
        injector = FaultInjector(canned["crash"], ACTIONS, 20)
        means = {n: curve(n) for n in ACTIONS}
        assert cumulative_fault_regret(injector, [1] * 20, means) > 0.0


class TestReporting:
    def test_campaign_strategies_interleaves_wrappers(self):
        assert campaign_strategies(("DC", "UCB")) == [
            "DC", "Resilient(DC)", "UCB", "Resilient(UCB)",
        ]

    def test_metrics_keys_follow_family_convention(self, crash_campaign):
        metrics = campaign_metrics(crash_campaign)
        for prefix in METRIC_UNITS:
            assert f"{prefix}.crash.GP-discontinuous" in metrics
            assert f"{prefix}.crash.Resilient(GP-discontinuous)" in metrics
        assert all(isinstance(v, float) for v in metrics.values())

    def test_table_renders_every_row(self, crash_campaign):
        table = campaign_table(crash_campaign)
        assert "crash" in table
        assert "Resilient(GP-discontinuous)" in table

    def test_report_path_is_required(self, crash_campaign, tmp_path,
                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(TypeError):
            write_campaign_report(crash_campaign)
        assert list(tmp_path.iterdir()) == []

    def test_report_artifact_contents(self, crash_campaign, tmp_path):
        out = tmp_path / "BENCH_faults.json"
        path = write_campaign_report(crash_campaign, path=out)
        payload = json.loads(path.read_text())
        assert payload["label"] == "faults-campaign synth"
        assert payload["config"]["iterations"] == ITERATIONS
        assert payload["config"]["reps"] == 3
        assert set(payload["config"]["schedules"]) == {"crash"}
        assert payload["schema"] == 2
        assert payload["metrics"] == {
            name: {"value": value, "unit": METRIC_UNITS[name.split(".")[0]]}
            for name, value in campaign_metrics(crash_campaign).items()
        }
        assert payload["improvements"] == crash_campaign.improvements()

    def test_row_lookup_raises_on_unknown(self, crash_campaign):
        with pytest.raises(KeyError):
            crash_campaign.row("crash", "Nope")

    def test_row_resilient_flag(self):
        raw = CampaignRow("crash", "UCB", 1.0, 1.0, 0.0)
        wrapped = CampaignRow("crash", "Resilient(UCB)", 1.0, 1.0, 0.0)
        assert not raw.resilient
        assert wrapped.resilient
