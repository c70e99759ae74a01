"""Property-based tests for the duration cache and its content keys.

Stdlib-``random`` generators only (seeded, no new dependencies): random
(scenario, config, workload) triples must produce collision-free keys,
equal triples must always hit, and the disk spill must round-trip
bit-exactly.
"""

import random

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
            key = simulation_fingerprint(scenario, tiles, n_fact, n_gen)
            cache.put(key, float(i))
            # A content-equal rebuild of the triple must produce a hit.
            clone = Scenario(
                key=scenario.key, site=scenario.site, counts=scenario.counts,
                workload=scenario.workload, mode=scenario.mode,
            )
            clone_key = simulation_fingerprint(clone, tiles, n_fact, n_gen)
            assert cache.get(clone_key) == float(i)
        assert cache.hits == 100
        assert cache.misses == 0

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


class TestDiskSpill:
    def test_round_trip_is_exact(self, tmp_path):
        rng = random.Random(11)
        path = tmp_path / "spill.json"
        cache = DurationCache()
        expected = {}
        for triple in (random_triple(rng) for _ in range(50)):
            key = simulation_fingerprint(*triple)
            value = rng.uniform(0.0, 1e6)
            cache.put(key, value)
            expected[key] = value
        cache.spill(path)

        fresh = DurationCache()
        assert fresh.load(path) == len(expected)
        for key, value in expected.items():
            assert fresh.get(key) == value  # bit-exact through JSON
        assert fresh.misses == 0

    def test_load_missing_file_is_noop(self, tmp_path):
        cache = DurationCache()
        assert cache.load(tmp_path / "absent.json") == 0
        assert len(cache) == 0

    def test_load_rejects_stale_model_version(self, tmp_path):
        import json

        path = tmp_path / "spill.json"
        path.write_text(json.dumps({
            "format": SPILL_FORMAT_VERSION,
            "model_version": MODEL_VERSION + 1,
            "entries": {"k": 1.0},
        }))
        cache = DurationCache()
        assert cache.load(path) == 0

    def test_truncated_spill_warns_and_loads_nothing(self, tmp_path, capsys):
        path = tmp_path / "spill.json"
        cache = DurationCache()
        for i in range(20):
            cache.put(f"k{i}", float(i))
        cache.spill(path)
        good = path.read_bytes()
        path.write_bytes(good[: len(good) // 2])  # interrupted write

        fresh = DurationCache()
        assert fresh.load(path) == 0
        assert len(fresh) == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"warning: {path}: skipping the unparseable "
                       "duration cache spill (interrupted write?)"]

        cache.spill(path)  # the next spill rewrites the file
        assert path.read_bytes() == good
        assert DurationCache().load(path) == 20
