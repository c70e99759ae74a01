"""Shared bounds for the differential suite: small tiles."""

import pytest


@pytest.fixture(autouse=True)
def _bounded_tiles(monkeypatch):
    """Pin both workloads to 16 tiles so the suite stays CI-sized.

    The full-fidelity (default-tile) equivalence run lives in the
    ``fullfidelity``-marked test and its dedicated CI job.
    """
    monkeypatch.setenv("REPRO_TILES_101", "16")
    monkeypatch.setenv("REPRO_TILES_128", "16")
