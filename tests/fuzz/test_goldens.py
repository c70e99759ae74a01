"""Regression replay of every committed canned fuzz scenario.

Each golden under ``tests/goldens/fuzz/`` is a shrunk scenario promoted
from a real property failure, with the config under which the property
is now expected to *pass* (``expect: "pass"``).  A promoted-but-unfixed
golden keeps this suite red; a fixed one guards the fix forever.
"""

from pathlib import Path

import pytest

from repro.fuzz import FuzzedPlatform, load_golden, replay_golden

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "goldens" / "fuzz"
GOLDENS = sorted(GOLDEN_DIR.glob("*.json"))


def test_at_least_one_golden_is_committed():
    assert GOLDENS, "the fuzz regression corpus must not be empty"


@pytest.mark.parametrize(
    "path", GOLDENS, ids=[p.stem for p in GOLDENS]
)
def test_golden_structure(path):
    payload = load_golden(path)
    assert payload["expect"] == "pass"
    # The embedded platform round-trips through the serializer.
    platform = FuzzedPlatform.from_dict(payload["platform"])
    assert platform.to_dict() == payload["platform"]
    assert payload["failure"]["check"] in (
        "regret-bound", "regret-monotone", "replay"
    )


@pytest.mark.parametrize(
    "path", GOLDENS, ids=[p.stem for p in GOLDENS]
)
def test_golden_replays_green(path):
    reproduced = replay_golden(path)
    assert reproduced == [], (
        f"{path.name}: the promoted failure reproduces again "
        f"({reproduced[0].detail}); the regression it guards is back"
    )
