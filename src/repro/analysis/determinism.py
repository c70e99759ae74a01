"""DET001 — determinism auditor.

The paper's Figure 6 experiment is 30 repetitions x 127 iterations per
scenario; its ≈51 % headline only reproduces when every repetition is
bit-deterministic.  All randomness must therefore flow through a seeded
``np.random.default_rng`` (as ``Strategy.__post_init__`` does) and no
production code may read wall-clock time as data.

Flagged inside ``src/``:

* ``np.random.<fn>(...)`` global-state calls (``seed``, ``rand``,
  ``choice`` …) — anything except constructing an explicit, seedable
  ``default_rng`` / ``Generator`` / ``SeedSequence``;
* an argument-less ``np.random.default_rng()`` or
  ``np.random.SeedSequence()``: both draw fresh OS entropy, so the
  stream differs on every run;
* stdlib ``random`` module usage (imports and calls);
* ``time.time()`` / ``datetime.now()`` / ``datetime.utcnow()`` /
  ``date.today()`` — wall-clock reads.  ``time.perf_counter`` is *not*
  flagged: measuring how long something took is the point of the
  reproduction; branching on the calendar is not.

The one audited exemption is ``WallClock.wall_time`` in
``obs/clock.py``, whose calendar read carries an inline
``# repro-lint: disable=DET001``.  Where a seeded or recorded value
travels afterwards is left to the dynamic checks: the rerun and
shard-count byte identity, and the `git diff` gates on the committed
artifacts.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

#: numpy.random attributes that are legitimate, explicitly-seeded entry
#: points rather than hidden global state.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "BitGenerator",
                 "PCG64", "Philox", "SFC64", "MT19937"}

#: Wall-clock reads: (module-ish prefix, attribute) pairs.
_WALL_CLOCK = {
    ("time", "time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

_USE_GENERATOR = "route randomness through a seeded np.random.default_rng Generator"


def _attr_chain(node: ast.AST) -> List[str]:
    """``np.random.seed`` -> ["np", "random", "seed"] (best effort)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


def _stdlib_random_imports(tree: ast.AST) -> Tuple[Set[str], Set[str]]:
    """Names bound to the stdlib random module / its functions."""
    aliases: Set[str] = set()
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or "random" for a in node.names
                           if a.name == "random")
        elif isinstance(node, ast.ImportFrom) and node.module == "random" \
                and node.level == 0:
            names.update(a.asname or a.name for a in node.names)
    return aliases, names


def _call_message(node: ast.Call, chain: List[str], aliases: Set[str],
                  names: Set[str]) -> Optional[str]:
    """The DET001 message for one call, or None when it is fine."""
    if len(chain) == 1:
        if chain[0] in names:
            return (f"call to stdlib random.{chain[0]}() (imported from "
                    f"random); {_USE_GENERATOR}")
        return None
    if len(chain) < 2:
        return None
    head, attr = chain[0], chain[-1]
    is_np_random = (len(chain) >= 3 and chain[-2] == "random"
                    and head in ("np", "numpy"))
    if is_np_random and attr not in _NP_RANDOM_OK:
        return (f"np.random.{attr}() uses numpy's hidden global RNG state; "
                "construct a seeded np.random.default_rng(seed) Generator "
                "instead (see Strategy.__post_init__)")
    # default_rng() / SeedSequence() with no seed fall back to OS entropy.
    if is_np_random and attr in ("default_rng", "SeedSequence") \
            and not node.args and not node.keywords:
        return (f"np.random.{attr}() without a seed draws OS entropy and "
                "differs on every run; pass a seed derived from the "
                "experiment's base seed")
    if len(chain) == 2 and head in aliases:
        return f"{head}.{attr}() uses stdlib random's global state; {_USE_GENERATOR}"
    if (chain[-2], attr) in _WALL_CLOCK:
        return (f"{'.'.join(chain)}() reads the wall clock; experiment "
                "inputs must be deterministic (pass timestamps in "
                "explicitly if one is genuinely needed)")
    return None


def violations(tree: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """Every DET001 violation in a module: (offending node, message)."""
    aliases, names = _stdlib_random_imports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random" \
                and node.level == 0:
            yield node, ("import from stdlib random: its global Mersenne "
                         "Twister state breaks run-to-run reproducibility; "
                         "use a seeded np.random.default_rng Generator")
        elif isinstance(node, ast.Call):
            message = _call_message(node, _attr_chain(node.func), aliases, names)
            if message is not None:
                yield node, message
