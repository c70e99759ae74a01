"""Suite-wide guard: a test module leaves every ``REPRO_*`` variable as
it found it.

Tile counts, cache directories and the like are read from the
environment when a workload, bank or cache is built, so a fixture that
sets one and never restores it silently changes every later module of
the session.  Set them with ``monkeypatch.setenv`` or, in a fixture
wider than a test, ``pytest.MonkeyPatch.context()``.
"""

import os

import pytest


def _repro_env():
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


@pytest.fixture(scope="module", autouse=True)
def _repro_env_restored(request):
    """Fail the module that leaves a ``REPRO_*`` variable changed, and
    restore the variables so the leak stops there."""
    before = _repro_env()
    yield
    after = _repro_env()
    if after == before:
        return
    changed = sorted(
        k for k in before.keys() | after.keys() if before.get(k) != after.get(k)
    )
    for k in changed:
        if k in before:
            os.environ[k] = before[k]
        else:
            del os.environ[k]
    pytest.fail(
        f"{request.module.__name__} left environment variables changed: "
        + ", ".join(
            f"{k} {before.get(k)!r} -> {after.get(k)!r}" for k in changed
        ),
        pytrace=False,
    )
