"""Property-based tests for the duration cache and its content keys.

Stdlib-``random`` generators only (seeded, no new dependencies): random
(scenario, config, workload) triples must produce collision-free keys,
equal triples must always hit, the LRU must respect its bound, and the
disk spill must round-trip bit-exactly.
"""

import random

import pytest

from repro.evaluate import DurationCache, simulation_fingerprint
from repro.evaluate.cache import SPILL_FORMAT_VERSION
from repro.measure import MODEL_VERSION
from repro.platform import get_scenario
from repro.platform.scenarios import Scenario

SITES = ("G5K", "SD")
CATEGORIES = ("L", "M", "S")
WORKLOADS = ("101", "128")
MODES = ("Real", "Simul")


def random_triple(rng: random.Random):
    """One random (scenario, tiles, plan) triple."""
    counts = tuple(
        (cat, rng.randint(1, 64))
        for cat in rng.sample(CATEGORIES, rng.randint(1, 3))
    )
    scenario = Scenario(
        key=rng.choice("abcdefghijklmnop"),
        site=rng.choice(SITES),
        counts=counts,
        workload=rng.choice(WORKLOADS),
        mode=rng.choice(MODES),
    )
    tiles = rng.randint(2, 128)
    n_fact = rng.randint(2, 128)
    n_gen = rng.randint(2, 128)
    return scenario, tiles, n_fact, n_gen


def triple_identity(triple):
    """Everything the key may depend on (note: NOT the subfigure letter)."""
    scenario, tiles, n_fact, n_gen = triple
    return (scenario.site, scenario.counts, scenario.workload, scenario.mode,
            tiles, n_fact, n_gen)


class TestContentKeys:
    def test_distinct_triples_never_collide(self):
        rng = random.Random(20260806)
        seen = {}
        for _ in range(300):
            triple = random_triple(rng)
            key = simulation_fingerprint(*triple)
            ident = triple_identity(triple)
            if key in seen:
                # A repeated key is only legal for a content-equal triple.
                assert seen[key] == ident
            seen[key] = ident
        assert len(set(seen)) == len(seen)

    def test_equal_triples_always_hit(self):
        rng = random.Random(7)
        cache = DurationCache()
        for i in range(100):
            scenario, tiles, n_fact, n_gen = random_triple(rng)
            key = cache.key_for(scenario, tiles, n_fact, n_gen)
            cache.put(key, float(i))
            # A content-equal rebuild of the triple must produce a hit.
            clone = Scenario(
                key=scenario.key, site=scenario.site, counts=scenario.counts,
                workload=scenario.workload, mode=scenario.mode,
            )
            assert cache.get(cache.key_for(clone, tiles, n_fact, n_gen)) == float(i)
        assert cache.hits == 100
        assert cache.hit_rate == 1.0

    def test_key_ignores_subfigure_letter_but_not_content(self):
        s = get_scenario("b")
        relabeled = Scenario(key="z", site=s.site, counts=s.counts,
                             workload=s.workload, mode=s.mode)
        assert (simulation_fingerprint(s, 10, 5, 14)
                == simulation_fingerprint(relabeled, 10, 5, 14))
        assert (simulation_fingerprint(s, 10, 5, 14)
                != simulation_fingerprint(s, 12, 5, 14))
        assert (simulation_fingerprint(s, 10, 5, 14)
                != simulation_fingerprint(s, 10, 6, 14))
        assert (simulation_fingerprint(s, 10, 5, 14)
                != simulation_fingerprint(s, 10, 5, 5))

    def test_key_tracks_fault_schedule(self):
        from repro.faults import STATIONARY, NodeCrash, FaultSchedule

        s = get_scenario("b")
        crash = FaultSchedule(label="crash", faults=(NodeCrash(node=14),))
        base = simulation_fingerprint(s, 10, 5, 14)
        # No schedule (None) keeps the historical key layout byte-exact:
        # a warm pre-fault spill stays valid.
        assert simulation_fingerprint(s, 10, 5, 14, faults=None) == base
        # Any schedule -- even the empty stationary one -- keys apart, and
        # different schedules key apart from each other.
        faulted = simulation_fingerprint(
            s, 10, 5, 14, faults=crash.fingerprint()
        )
        stationary = simulation_fingerprint(
            s, 10, 5, 14, faults=STATIONARY.fingerprint()
        )
        assert base != faulted != stationary
        assert DurationCache().key_for(
            s, 10, 5, 14, faults=crash.fingerprint()
        ) == faulted

    def test_key_tracks_perfmodel_calibration(self):
        from repro.runtime import PerfModel

        s = get_scenario("b")
        base = PerfModel()
        retuned = PerfModel(overhead_s=base.overhead_s * 2)
        assert (simulation_fingerprint(s, 10, 5, 14, base)
                != simulation_fingerprint(s, 10, 5, 14, retuned))
        # Efficiency-table insertion order must not leak into the key.
        shuffled = PerfModel(
            efficiency=dict(reversed(list(base.efficiency.items())))
        )
        assert (simulation_fingerprint(s, 10, 5, 14, base)
                == simulation_fingerprint(s, 10, 5, 14, shuffled))


class TestLRU:
    def test_eviction_bounds(self):
        rng = random.Random(3)
        maxsize = 16
        cache = DurationCache(maxsize=maxsize)
        keys = [f"key-{i}" for i in range(100)]
        for i, key in enumerate(keys):
            cache.put(key, float(i))
            assert len(cache) <= maxsize
            if rng.random() < 0.3 and i >= 1:
                cache.get(rng.choice(keys[: i + 1]))  # random LRU churn
        assert len(cache) == maxsize

    def test_least_recently_used_goes_first(self):
        cache = DurationCache(maxsize=2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        assert cache.get("a") == 1.0   # refresh a; b becomes LRU
        cache.put("c", 3.0)            # evicts b
        assert "b" not in cache
        assert cache.get("a") == 1.0
        assert cache.get("c") == 3.0
        assert cache.get("b") is None

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            DurationCache(maxsize=0)


class TestDiskSpill:
    def test_round_trip_is_exact(self, tmp_path):
        rng = random.Random(11)
        path = tmp_path / "spill.json"
        cache = DurationCache(spill_path=path)
        expected = {}
        for triple in (random_triple(rng) for _ in range(50)):
            key = simulation_fingerprint(*triple)
            value = rng.uniform(0.0, 1e6)
            cache.put(key, value)
            expected[key] = value
        cache.spill()

        fresh = DurationCache(spill_path=path)
        assert fresh.load() == len(expected)
        for key, value in expected.items():
            assert fresh.get(key) == value  # bit-exact through JSON
        assert fresh.misses == 0

    def test_load_missing_file_is_noop(self, tmp_path):
        cache = DurationCache(spill_path=tmp_path / "absent.json")
        assert cache.load() == 0
        assert len(cache) == 0

    def test_load_rejects_stale_model_version(self, tmp_path):
        import json

        path = tmp_path / "spill.json"
        path.write_text(json.dumps({
            "format": SPILL_FORMAT_VERSION,
            "model_version": MODEL_VERSION + 1,
            "entries": {"k": 1.0},
        }))
        cache = DurationCache(spill_path=path)
        assert cache.load() == 0

    def test_truncated_spill_warns_and_loads_nothing(self, tmp_path, capsys):
        path = tmp_path / "spill.json"
        cache = DurationCache(spill_path=path)
        for i in range(20):
            cache.put(f"k{i}", float(i))
        cache.spill()
        good = path.read_bytes()
        path.write_bytes(good[: len(good) // 2])  # interrupted write

        fresh = DurationCache(spill_path=path)
        assert fresh.load() == 0
        assert len(fresh) == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"warning: {path}: skipping the unparseable "
                       "duration cache spill (interrupted write?)"]

        cache.spill()  # the next spill rewrites the file
        assert path.read_bytes() == good
        assert DurationCache(spill_path=path).load() == 20

    def test_no_spill_path_raises(self):
        cache = DurationCache()
        with pytest.raises(ValueError):
            cache.spill()
        with pytest.raises(ValueError):
            cache.load()
