"""In-process service semantics: routing, batching, retirement, errors."""

import json

import pytest

from repro.measure.bank import synthetic_bank
from repro.serve import protocol
from repro.serve.protocol import ProtocolError
from repro.serve.service import BankStore, TuningService, shard_for
from repro.serve.session import (
    OBSERVE_BATCH,
    TenantSession,
    derive_tenant_seed,
    space_from_wire,
)

SPACE = {"actions": [1, 2, 4, 8, 16], "group_boundaries": []}


def _service(**kwargs):
    kwargs.setdefault("num_shards", 2)
    return TuningService(**kwargs)


def _register(service, tenant, strategy="UCB", seed=0):
    return service.handle(protocol.hello(tenant, strategy, seed,
                                         space=dict(SPACE)))


class TestShardHashing:
    def test_stable_across_calls(self):
        assert shard_for("t0001", 4) == shard_for("t0001", 4)

    def test_in_range_and_spread(self):
        shards = {shard_for(f"t{i:04d}", 4) for i in range(64)}
        assert shards == {0, 1, 2, 3}

    def test_single_shard_takes_everything(self):
        assert shard_for("anything", 1) == 0

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_for("t", 0)


class TestTenantSeed:
    def test_independent_of_registration_order(self):
        assert derive_tenant_seed("t1", 7) == derive_tenant_seed("t1", 7)

    def test_distinct_tenants_distinct_seeds(self):
        assert derive_tenant_seed("t1") != derive_tenant_seed("t2")


class TestLifecycle:
    def test_hello_answers_welcome_with_actions(self):
        service = _service()
        welcome = _register(service, "t1")
        assert welcome["kind"] == "welcome"
        assert welcome["actions"] == SPACE["actions"]
        assert welcome["shard"] == shard_for("t1", 2)

    def test_propose_is_answered_on_the_next_tick(self):
        service = _service()
        _register(service, "t1")
        assert service.handle(protocol.propose("t1")) is None
        responses = service.tick()
        kinds = [r["kind"] for r in responses]
        assert kinds == ["proposal"]
        assert responses[0]["tenant"] == "t1"
        assert responses[0]["n"] in SPACE["actions"]

    def test_observe_then_propose_same_tick(self):
        service = _service()
        _register(service, "t1")
        service.handle(protocol.observe("t1", 4, 10.0))
        service.handle(protocol.propose("t1"))
        kinds = [r["kind"] for r in service.tick()]
        assert kinds == ["ack", "proposal"]

    def test_bye_retires_the_session_with_stats(self):
        service = _service()
        _register(service, "t1")
        service.handle(protocol.propose("t1"))
        service.tick()
        service.handle(protocol.bye("t1"))
        responses = service.tick()
        assert responses[-1]["kind"] == "goodbye"
        assert responses[-1]["proposes"] == 1
        assert not service.shard_of("t1").sessions
        assert "t1" in service.retired
        assert service.retired["t1"].proposes == 1

    def test_duplicate_hello_is_refused(self):
        service = _service()
        _register(service, "t1")
        with pytest.raises(ProtocolError) as exc:
            _register(service, "t1")
        assert exc.value.code == "duplicate-tenant"

    def test_retired_tenant_cannot_rejoin(self):
        service = _service()
        _register(service, "t1")
        service.handle(protocol.bye("t1"))
        service.tick()
        with pytest.raises(ProtocolError) as exc:
            _register(service, "t1")
        assert exc.value.code == "duplicate-tenant"

    def test_unknown_tenant_is_refused(self):
        service = _service()
        with pytest.raises(ProtocolError) as exc:
            service.handle(protocol.propose("ghost"))
        assert exc.value.code == "unknown-tenant"

    def test_unknown_strategy_is_refused(self):
        service = _service()
        with pytest.raises(ProtocolError) as exc:
            _register(service, "t1", strategy="NoSuchStrategy")
        assert exc.value.code == "unknown-strategy"

    def test_unknown_scenario_is_refused(self):
        service = _service()
        with pytest.raises(ProtocolError) as exc:
            service.handle(protocol.hello("t1", "UCB", 0, scenario="zz"))
        assert exc.value.code == "unknown-scenario"


class TestBatching:
    def test_observe_backlog_drains_at_batch_rate(self):
        service = _service(num_shards=1)
        _register(service, "t1")
        backlog = OBSERVE_BATCH + 3
        for _ in range(backlog):
            service.handle(protocol.observe("t1", 4, 5.0))
        first = [r["kind"] for r in service.tick()]
        assert first == ["ack"] * OBSERVE_BATCH
        second = [r["kind"] for r in service.tick()]
        assert second == ["ack"] * 3

    def test_arrival_order_is_preserved_across_ticks(self):
        # propose blocks later observes: the client's stream ordering
        # is preserved even when the propose budget is exhausted.
        service = _service(num_shards=1)
        _register(service, "t1")
        service.handle(protocol.propose("t1"))
        service.handle(protocol.propose("t1"))
        service.handle(protocol.observe("t1", 4, 5.0))
        first = [r["kind"] for r in service.tick()]
        assert first == ["proposal"]
        second = [r["kind"] for r in service.tick()]
        assert second == ["proposal", "ack"]

    def test_propose_latency_counts_queue_ticks(self):
        service = _service(num_shards=1)
        _register(service, "t1")
        service.handle(protocol.propose("t1"))
        service.handle(protocol.propose("t1"))
        service.tick()
        service.tick()
        session = service.shard_of("t1").sessions["t1"]
        assert session.propose_latencies == [1, 2]


class TestHandleLine:
    def test_wire_error_comes_back_rendered(self):
        service = _service()
        reply = service.handle_line("{broken")
        body = json.loads(reply)
        assert body["kind"] == "error"
        assert body["code"] == "malformed-json"
        assert service.errors == 1
        service.handle_line('{"kind":"nope"}')
        assert service.errors == 2

    def test_wire_hello_round_trip(self):
        service = _service()
        line = protocol.render(protocol.hello("t1", "UCB", 0,
                                              space=dict(SPACE)))
        body = json.loads(service.handle_line(line))
        assert body["kind"] == "welcome"

    def test_queued_request_returns_nothing(self):
        service = _service()
        _register(service, "t1")
        line = protocol.render(protocol.propose("t1"))
        assert service.handle_line(line) is None


class TestBankStore:
    def test_put_get_counts_hits_and_misses(self):
        store = BankStore()
        bank = synthetic_bank(lambda n: 10.0 / n, actions=(1, 2, 4))
        assert store.get("fp") is None
        store.put("fp", bank)
        assert store.get("fp") is bank
        assert store.stats()["hits"] == 1.0
        assert store.stats()["misses"] == 1.0
        assert len(store) == 1

    def test_scenario_fingerprint_is_stable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TILES_101", "10")
        monkeypatch.setenv("REPRO_TILES_128", "10")
        from repro.platform.scenarios import SCENARIOS

        store = BankStore()
        fp1 = store.scenario_fingerprint(SCENARIOS["b"])
        fp2 = BankStore().scenario_fingerprint(SCENARIOS["b"])
        assert fp1 == fp2
        assert fp1 != store.scenario_fingerprint(SCENARIOS["c"])


class TestSessionUnits:
    def test_space_from_wire_has_degenerate_lp_bound(self):
        space = space_from_wire({"actions": [1, 2, 4],
                                 "group_boundaries": []})
        assert space.actions == (1, 2, 4)
        assert space.n_total == 4
        assert space.lp_bound(2) == 0.0

    def test_closed_session_rejects_enqueue(self):
        space = space_from_wire({"actions": [1, 2, 4],
                                 "group_boundaries": []})
        session = TenantSession("t1", "UCB", space)
        session.enqueue(protocol.bye("t1"), 0)
        session.step(0)
        assert session.closed
        with pytest.raises(ProtocolError) as exc:
            session.enqueue(protocol.propose("t1"), 1)
        assert exc.value.code == "unknown-tenant"
