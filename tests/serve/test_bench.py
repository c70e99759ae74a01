"""Load-generator determinism: seeded streams, shard invariance, SLOs."""

import json

import pytest

from repro.measure.bank import synthetic_bank
from repro.serve.loadgen import (
    SERVE_P99_BOUND,
    TenantSpec,
    latency_verdicts,
    run_bench,
    sample_tenants,
    write_serve_report,
)
from repro.serve.service import BankStore

TENANTS = 48


def _synthetic_store() -> BankStore:
    """A bank store pre-seeded with synthetic banks for every table
    scenario, so bench tests never sweep a simulator."""
    from repro.platform.scenarios import SCENARIOS

    store = BankStore()
    for index, key in enumerate(sorted(SCENARIOS)):
        bank = synthetic_bank(
            lambda n, c=index: 30.0 / n + 0.25 * n + c,
            actions=(1, 2, 4, 8, 12, 16),
            seed=index,
            label=f"synthetic-{key}",
        )
        store.put(store.scenario_fingerprint(SCENARIOS[key]), bank)
    return store


def _bench(shards: int, **kwargs):
    kwargs.setdefault("tenants", TENANTS)
    kwargs.setdefault("fuzz_count", 0)
    kwargs.setdefault("bank_store", _synthetic_store())
    return run_bench(shards=shards, **kwargs)


class TestSampleTenants:
    def test_pure_function_of_the_seed(self):
        a = sample_tenants(32, seed=3, fuzz_count=0)
        b = sample_tenants(32, seed=3, fuzz_count=0)
        assert a == b

    def test_distinct_seeds_distinct_populations(self):
        assert sample_tenants(32, seed=0, fuzz_count=0) != \
            sample_tenants(32, seed=1, fuzz_count=0)

    def test_spec_shape(self):
        spec = sample_tenants(1, fuzz_count=0)[0]
        assert isinstance(spec, TenantSpec)
        assert spec.tenant_id == "t0000"
        assert spec.source == "table"
        assert spec.iterations >= 8


class TestShardInvariance:
    def test_report_identical_at_shards_1_and_4(self):
        report_1 = _bench(shards=1)
        report_4 = _bench(shards=4)
        assert json.dumps(report_1, sort_keys=True) == \
            json.dumps(report_4, sort_keys=True)

    def test_written_artifact_bytes_identical(self, tmp_path):
        path_1 = write_serve_report(_bench(shards=1),
                                    path=tmp_path / "one.json")
        path_4 = write_serve_report(_bench(shards=4),
                                    path=tmp_path / "four.json")
        assert path_1.read_bytes() == path_4.read_bytes()

    def test_double_run_identical(self):
        assert _bench(shards=2) == _bench(shards=2)


class TestBenchReport:
    @pytest.fixture(scope="class")
    def report(self):
        return _bench(shards=2)

    def test_every_tenant_completes(self, report):
        assert report["metrics"]["serve.tenants"] == float(TENANTS)
        assert report["ok"] is True

    def test_latency_metrics_within_bound(self, report):
        metrics = report["metrics"]
        assert 1.0 <= metrics["serve.propose_p99_ticks"] <= SERVE_P99_BOUND
        assert metrics["serve.propose_p50_ticks"] <= \
            metrics["serve.propose_p99_ticks"]
        assert metrics["serve.errors"] == 0.0

    def test_banks_are_shared_not_rebuilt(self, report):
        metrics = report["metrics"]
        # Far fewer bank materializations than tenants: same-scenario
        # tenants share one bank through the fingerprint registry.
        assert metrics["serve.banks.banks"] <= 16.0
        assert metrics["serve.banks.hits"] > 0.0

    def test_slo_verdicts_cover_the_rules(self, report):
        names = {v["rule"] for v in report["slo"]}
        assert names == {"serve-propose-p99", "serve-propose-mean",
                         "serve-latency-burn"}
        assert all(v["ok"] for v in report["slo"])

    def test_per_strategy_rows_sum_to_population(self, report):
        total = sum(row["tenants"]
                    for row in report["per_strategy"].values())
        assert total == float(TENANTS)

    def test_config_omits_the_shard_count(self, report):
        # The report must be a pure function of the tenant population;
        # a shard field would break the cross-shard byte-identity gate.
        assert "shards" not in report["config"]


class TestServeSloRules:
    def test_p99_rule_trips_above_the_bound(self):
        verdicts = latency_verdicts([2.0 * SERVE_P99_BOUND] * 100)
        p99 = next(v for v in verdicts if v["rule"] == "serve-propose-p99")
        assert not p99["ok"]
        assert p99["observed"] == 2.0 * SERVE_P99_BOUND

    def test_healthy_stream_passes_every_rule(self):
        verdicts = latency_verdicts([1.0] * 100)
        assert [v["rule"] for v in verdicts] == [
            "serve-propose-p99", "serve-propose-mean", "serve-latency-burn"]
        assert all(v["ok"] for v in verdicts)

    def test_burn_budget_allows_64_points_above_the_bound(self):
        tail = [2.0 * SERVE_P99_BOUND]
        ok = latency_verdicts([1.0] * 9000 + tail * 64)
        burned = latency_verdicts([1.0] * 9000 + tail * 65)
        assert ok[2]["observed"] == 64.0 and ok[2]["ok"]
        assert burned[2]["observed"] == 65.0 and not burned[2]["ok"]
