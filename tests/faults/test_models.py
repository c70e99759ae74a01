"""Tests for the declarative fault models and schedules."""

import json

import pytest

from repro.faults import (
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
from repro.faults.models import CANNED_SCHEDULES


class TestFaultModels:
    def test_kinds_registry(self):
        assert set(FAULT_KINDS) == {
            "slowdown", "crash", "interference", "network"
        }

    def test_windows(self):
        f = NodeSlowdown(node=3, gflops_factor=0.5, start=5, end=10)
        assert not f.active(4)
        assert f.active(5) and f.active(9)
        assert not f.active(10)

    def test_open_window_runs_forever(self):
        f = NodeCrash(node=2, start=7)
        assert not f.active(6)
        assert f.active(7) and f.active(10**6)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            NodeCrash(node=1, start=-1)
        with pytest.raises(ValueError):
            NodeCrash(node=1, start=5, end=5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NodeSlowdown(node=0, gflops_factor=0.5)
        with pytest.raises(ValueError):
            NodeSlowdown(node=1, gflops_factor=0.0)
        with pytest.raises(ValueError):
            NodeSlowdown(node=1, gflops_factor=1.5)
        with pytest.raises(ValueError):
            NodeCrash(node=1, penalty=0.9)
        with pytest.raises(ValueError):
            InterferenceBurst(magnitude_s=-1.0)
        with pytest.raises(ValueError):
            InterferenceBurst(magnitude_s=1.0, jitter=1.5)
        with pytest.raises(ValueError):
            NetworkDegradation(bandwidth_factor=0.0)
        with pytest.raises(ValueError):
            NetworkDegradation(bandwidth_factor=0.5, comm_share=2.0)

    @pytest.mark.parametrize("fault", [
        NodeSlowdown(node=3, gflops_factor=0.5, start=5, end=10),
        NodeCrash(node=2, start=7, penalty=2.0),
        InterferenceBurst(magnitude_s=1.5, start=1, end=9, jitter=0.3),
        NetworkDegradation(bandwidth_factor=0.4, start=0, comm_share=0.2),
    ])
    def test_dict_round_trip(self, fault):
        assert fault_from_dict(fault_to_dict(fault)) == fault

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fault_from_dict({"kind": "meteor", "node": 1})
        with pytest.raises(TypeError):
            fault_to_dict("not a fault")


class TestFaultSchedule:
    def schedule(self):
        return FaultSchedule(
            label="mix",
            faults=(
                NodeCrash(node=8, start=10),
                NodeCrash(node=7, start=10, end=20),
                NodeSlowdown(node=4, gflops_factor=0.5, start=5, end=15),
                InterferenceBurst(magnitude_s=1.0, jitter=0.2),
            ),
            seed=42,
        )

    def test_stationary_is_empty(self):
        assert STATIONARY.empty
        assert len(STATIONARY) == 0

    def test_of_kind_preserves_order(self):
        s = self.schedule()
        assert [f.node for f in s.of_kind("crash")] == [8, 7]
        assert len(s.of_kind("interference")) == 1

    def test_crashed_nodes_sorted_distinct(self):
        s = self.schedule()
        assert s.crashed_nodes(5) == ()
        assert s.crashed_nodes(12) == (7, 8)
        assert s.crashed_nodes(25) == (8,)   # node 7 came back

    def test_json_round_trip(self):
        s = self.schedule()
        clone = FaultSchedule.from_json(s.to_json())
        assert clone == s
        assert json.loads(s.to_json())["schema"] == FAULT_SCHEMA_VERSION

    def test_wrong_schema_rejected(self):
        blob = json.dumps({"schema": 999, "label": "x", "faults": []})
        with pytest.raises(ValueError):
            FaultSchedule.from_json(blob)

    def test_non_fault_member_rejected(self):
        with pytest.raises(TypeError):
            FaultSchedule(label="bad", faults=("oops",))

    def test_fingerprint_tracks_content(self):
        s = self.schedule()
        assert s.fingerprint() == self.schedule().fingerprint()
        reseeded = FaultSchedule(label=s.label, faults=s.faults, seed=43)
        assert reseeded.fingerprint() != s.fingerprint()
        assert STATIONARY.fingerprint() != s.fingerprint()

    def test_validate_for(self):
        s = self.schedule()
        s.validate_for(8, lo=1)
        with pytest.raises(ValueError):
            s.validate_for(6)        # faults name nodes 7 and 8
        with pytest.raises(ValueError):
            s.validate_for(8, lo=7)  # two crashes leave fewer than 7

    def test_describe_mentions_every_fault(self):
        text = self.schedule().describe()
        for word in ("crash", "slowdown", "interference", "mix"):
            assert word in text


class TestCannedSchedules:
    def test_names_and_feasibility(self):
        canned = canned_schedules(8, 60, seed=3)
        assert set(canned) == {
            "straggler", "crash", "interference", "netdeg", "compound"
        }
        assert set(canned) == set(CANNED_SCHEDULES)  # the CLI's names
        for schedule in canned.values():
            schedule.validate_for(8, lo=1)
            assert schedule.seed == 3

    def test_crash_takes_top_quarter(self):
        canned = canned_schedules(8, 60)
        crash = canned["crash"]
        assert {f.node for f in crash.of_kind("crash")} == {7, 8}
        assert crash.crashed_nodes(59) == (7, 8)
        assert crash.crashed_nodes(0) == ()

    def test_too_small_inputs_rejected(self):
        with pytest.raises(ValueError):
            canned_schedules(1, 60)
        with pytest.raises(ValueError):
            canned_schedules(8, 5)

    def test_deterministic_fingerprints(self):
        a = canned_schedules(8, 60, seed=1)
        b = canned_schedules(8, 60, seed=1)
        for key in a:
            assert a[key].fingerprint() == b[key].fingerprint()
