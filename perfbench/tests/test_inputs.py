"""Generated inputs are a pure function of (workload, seed)."""

import pytest

from perfbench.inputs import WORKLOADS, canonical, generate


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    assert canonical(generate(workload, 7)) == canonical(generate(workload, 7))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_gives_different_inputs(workload):
    assert canonical(generate(workload, 7)) != canonical(generate(workload, 8))


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        generate("no-such-workload", 0)
