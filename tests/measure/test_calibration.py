"""Tests for the simulator consistency checks (paper Section V spirit)."""

import pytest

from repro.measure import Check, consistency_report
from repro.measure.calibration import (
    check_lp_monotone_in_nodes,
    check_lp_sandwich,
    check_network_monotonicity,
    check_work_scaling,
)
from repro.platform import get_scenario
from repro.workload import Workload


@pytest.fixture(autouse=True)
def small(monkeypatch):
    monkeypatch.setenv("REPRO_TILES_101", "10")
    monkeypatch.setenv("REPRO_TILES_128", "10")


@pytest.fixture(scope="module")
def setup():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_TILES_101", "10")
        return get_scenario("b").build_cluster(), Workload.from_name("101")


class TestIndividualChecks:
    def test_work_scaling(self, setup):
        cluster, wl = setup
        check = check_work_scaling(cluster, wl, n_fact=6)
        assert check.passed, check.detail

    def test_lp_sandwich(self, setup):
        cluster, wl = setup
        check = check_lp_sandwich(cluster, wl, n_fact=6)
        assert check.passed, check.detail

    def test_network_monotonicity(self, setup):
        cluster, wl = setup
        check = check_network_monotonicity(cluster, wl, n_fact=6)
        assert check.passed, check.detail

    def test_lp_monotone(self, setup):
        cluster, wl = setup
        check = check_lp_monotone_in_nodes(cluster, wl)
        assert check.passed, check.detail


class TestReport:
    def test_all_checks_pass_on_sd_scenario(self):
        cluster = get_scenario("c").build_cluster()
        wl = Workload.from_name("128")
        checks = consistency_report(cluster, wl, n_fact=8)
        assert len(checks) == 4
        for c in checks:
            assert isinstance(c, Check)
            assert c.passed, f"{c.name}: {c.detail}"
