"""DET001 fixtures: global RNG state and wall-clock reads."""

import tokenize
from pathlib import Path

from repro.analysis import analyze_paths

from .conftest import mk, run_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def findings(rel, src):
    return run_rules(mk(rel, src))


class TestNumpyGlobalState:
    def test_np_random_seed_flagged(self):
        out = findings("src/m.py", """
            import numpy as np
            np.random.seed(42)
        """)
        assert [f.rule for f in out] == ["DET001"]
        assert "hidden global RNG" in out[0].message

    def test_np_random_fns_flagged(self):
        src = """
            import numpy as np
            a = np.random.rand(3)
            b = np.random.choice([1, 2])
            c = np.random.normal(0.0, 1.0)
        """
        assert len(findings("src/m.py", src)) == 3

    def test_numpy_alias_flagged(self):
        assert findings("src/m.py", """
            import numpy
            numpy.random.shuffle(xs)
        """)

    def test_default_rng_ok(self):
        assert not findings("src/m.py", """
            import numpy as np
            rng = np.random.default_rng(0)
            x = rng.normal()
        """)

    def test_generator_annotation_ok(self):
        assert not findings("src/m.py", """
            import numpy as np

            def sample(rng: np.random.Generator) -> float:
                return float(rng.random())
        """)


class TestUnseededConstruction:
    def test_argless_default_rng_flagged(self):
        out = findings("src/bad.py", """
            import numpy as np

            def make_rng():
                return np.random.default_rng()
        """)
        assert [f.rule for f in out] == ["DET001"]
        assert "without a seed" in out[0].message

    def test_seeded_default_rng_ok(self):
        assert not findings("src/bad.py", """
            import numpy as np

            def make_rng(seed):
                return np.random.default_rng(seed)
        """)

    def test_argless_seed_sequence_flagged(self):
        out = findings("src/m.py", """
            import numpy
            ss = numpy.random.SeedSequence()
        """)
        assert [f.rule for f in out] == ["DET001"]

    def test_keyword_seed_sequence_ok(self):
        assert not findings("src/m.py", """
            import numpy as np
            ss = np.random.SeedSequence(entropy=7)
        """)


class TestStdlibRandom:
    def test_module_call_flagged(self):
        out = findings("src/m.py", """
            import random
            x = random.random()
        """)
        assert out and "global state" in out[0].message

    def test_from_import_flagged(self):
        out = findings("src/m.py", """
            from random import choice
            x = choice([1, 2])
        """)
        # Both the import itself and the call are reported.
        assert len(out) == 2

    def test_unrelated_attribute_ok(self):
        assert not findings("src/m.py", """
            x = rng.random()
        """)


class TestWallClock:
    def test_time_time_flagged(self):
        out = findings("src/m.py", """
            import time
            t = time.time()
        """)
        assert out and "wall clock" in out[0].message

    def test_datetime_now_flagged(self):
        assert findings("src/m.py", """
            from datetime import datetime
            stamp = datetime.now()
        """)

    def test_perf_counter_ok(self):
        assert not findings("src/m.py", """
            import time
            t0 = time.perf_counter()
        """)


class TestScope:
    def test_only_src_is_audited(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert not findings("tests/m.py", src)
        assert not findings("benchmarks/m.py", src)


class TestWallClockAllowlist:
    """The single audited exemption: one inline comment, on the one
    calendar read of ``WallClock.wall_time``."""

    ALLOWED = "src/repro/obs/clock.py"

    def test_wallclock_wall_time_may_read_wall_clock(self):
        assert not findings(self.ALLOWED, """
            import time
            class WallClock:
                def wall_time(self):
                    return time.time()  # repro-lint: disable=DET001
        """)
        assert analyze_paths(REPO_ROOT, [self.ALLOWED]).findings == []

    def test_other_symbols_in_clock_module_still_flagged(self):
        # The exemption is per-line, not per-file: a module-level helper
        # (or another method) in clock.py is checked as usual.
        assert findings(self.ALLOWED, """
            import time
            def wall_time():
                return time.time()
        """)
        assert findings(self.ALLOWED, """
            import time
            class WallClock:
                def wall_time(self):
                    return time.time()  # repro-lint: disable=DET001
                def drift(self):
                    return time.time()
        """)

    def test_same_source_elsewhere_still_flagged(self):
        src = """
            import time
            class WallClock:
                def wall_time(self):
                    return time.time()
        """
        assert findings("src/repro/obs/other.py", src)
        assert findings("src/repro/runtime/simulator.py", src)
        assert findings(self.ALLOWED, src)

    def test_allowlist_does_not_cover_rng(self):
        out = findings(self.ALLOWED, """
            import time
            import numpy as np
            class WallClock:
                def wall_time(self):
                    return time.time()  # repro-lint: disable=DET001
            np.random.seed(0)
        """)
        assert out and "hidden global RNG" in out[0].message

    def test_allowlist_is_a_single_audited_symbol(self):
        # Every `repro-lint:` comment token under src/ (docstrings that
        # merely mention the syntax are not comments).
        marked = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            with path.open("rb") as fh:
                marked.extend(
                    (path.relative_to(REPO_ROOT).as_posix(), tok.line.strip())
                    for tok in tokenize.tokenize(fh.readline)
                    if tok.type == tokenize.COMMENT and "repro-lint:" in tok.string
                )
        assert marked == [(
            self.ALLOWED,
            "return time.time()  # repro-lint: disable=DET001",
        )]


class TestFastEngineIdioms:
    """Fixture pair for the flat-plan fast engine's RNG discipline.

    The fast path replays the reference's jitter stream, so the one
    thing DET001 must keep out of it is hidden global RNG state: the
    positive fixture is the tempting-but-wrong way to jitter a batched
    plan, the negative one is the engine's actual idiom (a per-run
    seeded Generator plus monotonic timing in the bench layer).
    """

    MODULE = "src/repro/runtime/simfast.py"

    def test_global_rng_jitter_in_engine_flagged(self):
        out = findings(self.MODULE, """
            import numpy as np

            def run_plan(plan, noise_sd):
                np.random.seed(plan.seed)
                return np.random.normal(0.0, noise_sd, plan.n_tasks)
        """)
        assert [f.rule for f in out] == ["DET001", "DET001"]

    def test_seeded_generator_and_perf_counter_ok(self):
        assert not findings(self.MODULE, """
            import time

            import numpy as np

            def run_plan(plan, noise_sd, seed):
                t0 = time.perf_counter()
                rng = np.random.default_rng(seed)
                noise = rng.normal(0.0, noise_sd, plan.n_tasks)
                return noise, time.perf_counter() - t0
        """)
