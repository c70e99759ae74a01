"""Shrinking failing scenarios and promoting them to canned regressions.

When a property fails on a fuzzed platform, the raw counterexample is
usually noisy: a 20-node, 3-group cluster with a compound fault schedule
where a 6-node single-group slice would fail identically.  The shrinker
applies the classic greedy reduction loop -- try each simplification,
keep it if the *same* (strategy, check) failure reproduces, restart --
over four reduction axes:

* drop a whole node group,
* halve a group's node count,
* halve the workload (Cholesky tile count, or msr maps/reduces),
* strip one fault from the schedule (then the schedule itself).

The minimized platform is *promoted* to a canned regression scenario: a
JSON file under ``tests/goldens/fuzz/`` carrying the platform, the
failed check and the property config.  Committed goldens are replayed by
the regression suite (and ``repro fuzz replay``), which asserts the
recorded expectation -- promotion stamps ``expect: "pass"``, so a
promoted golden keeps CI red until the underlying issue is fixed and
green forever after.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from ..obs import write_atomic
from .platforms import FUZZ_SCHEMA_VERSION, FuzzConfig, FuzzedPlatform
from .properties import (
    CHECKS,
    PropertyConfig,
    PropertyFailure,
    check_platform,
)

#: Default directory of committed canned regression scenarios.
GOLDEN_DIR = Path("tests/goldens/fuzz")


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of one shrink run."""

    platform: FuzzedPlatform
    failure: PropertyFailure
    steps: Tuple[str, ...]

    @property
    def shrunk(self) -> bool:
        """Whether any reduction survived."""
        return bool(self.steps)


def _with_counts(
    platform: FuzzedPlatform, counts: Tuple[Tuple[str, int], ...]
) -> FuzzedPlatform:
    scenario = dataclasses.replace(platform.scenario, counts=counts)
    return dataclasses.replace(platform, scenario=scenario)


def candidates(
    platform: FuzzedPlatform,
) -> Iterator[Tuple[str, FuzzedPlatform]]:
    """Candidate one-step reductions, most aggressive first."""
    counts = platform.scenario.counts
    # Drop whole groups.
    if len(counts) > 1:
        for i, (cat, _) in enumerate(counts):
            yield (
                f"drop group {cat}",
                _with_counts(platform, counts[:i] + counts[i + 1:]),
            )
    # Halve group counts.
    for i, (cat, count) in enumerate(counts):
        if count > 1:
            reduced = counts[:i] + ((cat, count // 2),) + counts[i + 1:]
            yield (f"halve group {cat}", _with_counts(platform, reduced))
    # Halve the workload.
    if platform.family == "cholesky":
        if platform.tiles >= 8:
            yield (
                "halve tiles",
                dataclasses.replace(platform, tiles=platform.tiles // 2),
            )
    elif platform.msr is not None:
        msr = platform.msr
        if msr.maps >= 4:
            yield (
                "halve maps",
                dataclasses.replace(
                    platform,
                    msr=dataclasses.replace(msr, maps=msr.maps // 2),
                ),
            )
        if msr.reduces >= 4:
            yield (
                "halve reduces",
                dataclasses.replace(
                    platform,
                    msr=dataclasses.replace(msr, reduces=msr.reduces // 2),
                ),
            )
    # Strip fault events, then the schedule.
    if platform.schedule is not None:
        faults = platform.schedule.faults
        for i in range(len(faults)):
            remaining = faults[:i] + faults[i + 1:]
            if remaining:
                schedule = dataclasses.replace(
                    platform.schedule, faults=remaining
                )
            else:
                schedule = None
            yield (
                f"strip fault {i}",
                dataclasses.replace(platform, schedule=schedule),
            )
        yield (
            "drop schedule",
            dataclasses.replace(platform, schedule=None),
        )


def reproduce(
    platform: FuzzedPlatform,
    failure: PropertyFailure,
    config: PropertyConfig,
) -> Optional[PropertyFailure]:
    """Re-run the single failing (strategy, check) on a platform.

    Returns the reproduced failure, or ``None`` when the property now
    holds (or the candidate platform is outright invalid -- e.g. the
    schedule no longer fits the shrunk pool, which counts as "does not
    reproduce").
    """
    cfg = dataclasses.replace(
        config,
        strategies=(failure.strategy,),
        check_replay=failure.check == "replay",
    )
    try:
        outcome = check_platform(platform, cfg)
    except (ValueError, RuntimeError):
        return None
    for candidate in outcome.failures:
        if (
            candidate.check == failure.check
            and candidate.strategy == failure.strategy
        ):
            return candidate
    return None


def shrink(
    platform: FuzzedPlatform,
    failure: PropertyFailure,
    config: PropertyConfig,
    max_rounds: int = 24,
) -> ShrinkResult:
    """Greedily minimize a failing platform.

    Each round tries every candidate reduction in order and commits to
    the first one that still reproduces the failure; the loop stops when
    a full round yields no reduction (a local minimum) or after
    ``max_rounds`` committed steps.
    """
    current = platform
    current_failure = failure
    steps: List[str] = []
    for _ in range(max_rounds):
        for step, candidate in candidates(current):
            reproduced = reproduce(candidate, failure, config)
            if reproduced is not None:
                current = candidate
                current_failure = reproduced
                steps.append(step)
                break
        else:
            break
    return ShrinkResult(
        platform=current, failure=current_failure, steps=tuple(steps)
    )


# -- promotion ----------------------------------------------------------------------


def golden_name(platform: FuzzedPlatform, failure: PropertyFailure) -> str:
    """Deterministic file name of a promoted regression scenario."""
    slug = re.sub(r"[^a-z0-9]+", "-", failure.strategy.lower()).strip("-")
    return (
        f"fz_{platform.family}_{slug}_{failure.check}_"
        f"{platform.fingerprint()[:10]}.json"
    )


def golden_payload(
    platform: FuzzedPlatform,
    failure: PropertyFailure,
    config: PropertyConfig,
    steps: Tuple[str, ...] = (),
) -> dict:
    """The canonical committed form of a promoted scenario."""
    return {
        "schema": FUZZ_SCHEMA_VERSION,
        "platform": platform.to_dict(),
        "failure": failure.to_dict(),
        "config": {
            "iterations": config.iterations,
            "regret_bound": config.regret_bound,
            "base_seed": config.base_seed,
        },
        "shrink_steps": list(steps),
        "expect": "pass",
    }


def promote(
    platform: FuzzedPlatform,
    failure: PropertyFailure,
    config: PropertyConfig,
    directory: Path = GOLDEN_DIR,
    steps: Tuple[str, ...] = (),
) -> Path:
    """Write a minimized failure as a canned regression scenario."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / golden_name(platform, failure)
    payload = golden_payload(platform, failure, config, steps)
    return write_atomic(path, json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")


def load_golden(path: Path) -> dict:
    """Read and structurally validate a promoted scenario."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != FUZZ_SCHEMA_VERSION:
        raise ValueError(f"unsupported golden schema in {path}")
    for field_name in ("platform", "failure", "config"):
        if field_name not in payload:
            raise ValueError(f"golden {path} misses {field_name!r}")
    check = payload["failure"].get("check")
    if check not in CHECKS:
        raise ValueError(f"golden {path} names an unknown check {check!r}")
    return payload


def replay_golden(path: Path) -> List[PropertyFailure]:
    """Re-run a promoted scenario's failing (strategy, check).

    Returns the list of reproduced failures -- empty when the property
    now holds, i.e. the committed expectation ``expect: "pass"`` is met.
    """
    payload = load_golden(path)
    platform = FuzzedPlatform.from_dict(payload["platform"])
    spec = payload["failure"]
    cfg = PropertyConfig(
        iterations=int(payload["config"]["iterations"]),
        regret_bound=float(payload["config"]["regret_bound"]),
        base_seed=int(payload["config"]["base_seed"]),
        strategies=(spec["strategy"],),
        check_replay=spec["check"] == "replay",
    )
    outcome = check_platform(platform, cfg)
    return [
        f for f in outcome.failures
        if f.check == spec["check"] and f.strategy == spec["strategy"]
    ]
