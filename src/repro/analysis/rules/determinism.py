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

A single audited exemption exists: the per-symbol entries of
:data:`WALL_CLOCK_ALLOWLIST` (``WallClock.wall_time``, the
observability clock's one calendar read) may read the wall clock;
everything else — including the rest of ``obs/clock.py`` — is still
checked.  Where a seeded or recorded value travels afterwards is left
to the dynamic checks: serial-vs-parallel and shard-count byte identity,
and the rerun `git diff` gates on the committed artifacts.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from ..engine import ParsedModule, Rule, register
from ..findings import Finding, Severity

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

#: Symbols allowed to read the wall clock, per module.  The single
#: audited entry is the observability clock's ``WallClock.wall_time``:
#: it stamps trace headers with a calendar time that is *recorded*,
#: never branched on, and the deterministic ``TickClock`` replaces it
#: entirely under ``--trace-ticks``.  The exemption is per-symbol —
#: other code in the same module is still checked — and RNG findings
#: apply to the allowlisted symbols too.
WALL_CLOCK_ALLOWLIST: Dict[str, frozenset] = {
    "src/repro/obs/clock.py": frozenset({"WallClock.wall_time"}),
}


def _attr_chain(node: ast.AST) -> List[str]:
    """``np.random.seed`` -> ["np", "random", "seed"] (best effort)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


def _symbol_enclosure(tree: ast.AST) -> Dict[int, str]:
    """id(node) → dotted enclosing symbol (``WallClock.wall_time``).

    Module-level nodes map to ``<module>``; nesting joins with dots, so
    the per-symbol allowlist can name exactly one method of one class.
    """
    out: Dict[int, str] = {}

    def visit(node: ast.AST, symbol: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_symbol = symbol
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                child_symbol = child.name if symbol == "<module>" \
                    else f"{symbol}.{child.name}"
            out[id(child)] = child_symbol
            visit(child, child_symbol)

    out[id(tree)] = "<module>"
    visit(tree, "<module>")
    return out


@register
class DeterminismRule(Rule):
    id = "DET001"
    name = "determinism-auditor"
    description = (
        "no global-state or unseeded RNG (np.random.*, stdlib random, "
        "argument-less default_rng()/SeedSequence()) or wall-clock reads "
        "in production code; use seeded np.random.default_rng"
    )
    severity = Severity.ERROR
    scopes = ("src",)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        random_aliases, random_names = self._stdlib_random_imports(module.tree)
        enclosure = _symbol_enclosure(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(module, node)
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if len(chain) >= 2:
                yield from self._check_call_chain(
                    module, node, chain, random_aliases,
                    enclosure.get(id(node), "<module>"),
                )
            elif len(chain) == 1 and chain[0] in random_names:
                yield self.finding(
                    module, node,
                    f"call to stdlib random.{chain[0]}() (imported from "
                    "random); route randomness through a seeded "
                    "np.random.default_rng Generator",
                )

    # -- helpers ---------------------------------------------------------------

    def _stdlib_random_imports(
        self, tree: ast.AST
    ) -> Tuple[Set[str], Set[str]]:
        """Names bound to the stdlib random module / its functions."""
        aliases: Set[str] = set()
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    for alias in node.names:
                        names.add(alias.asname or alias.name)
        return aliases, names

    def _check_import(
        self, module: ParsedModule, node: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                yield self.finding(
                    module, node,
                    "import from stdlib random: its global Mersenne Twister "
                    "state breaks run-to-run reproducibility; use a seeded "
                    "np.random.default_rng Generator",
                )

    def _check_call_chain(
        self,
        module: ParsedModule,
        node: ast.Call,
        chain: List[str],
        random_aliases: Set[str],
        symbol: str = "<module>",
    ) -> Iterator[Finding]:
        head, attr = chain[0], chain[-1]
        is_np_random = (len(chain) >= 3 and chain[-2] == "random"
                        and head in ("np", "numpy"))
        # np.random.<fn>() / numpy.random.<fn>() global-state calls.
        if is_np_random and attr not in _NP_RANDOM_OK:
            yield self.finding(
                module, node,
                f"np.random.{attr}() uses numpy's hidden global RNG state; "
                "construct a seeded np.random.default_rng(seed) Generator "
                "instead (see Strategy.__post_init__)",
            )
            return
        # np.random.default_rng() / SeedSequence() with no seed: both
        # fall back to fresh OS entropy.
        if is_np_random and attr in ("default_rng", "SeedSequence") \
                and not node.args and not node.keywords:
            yield self.finding(
                module, node,
                f"np.random.{attr}() without a seed draws OS entropy and "
                "differs on every run; pass a seed derived from the "
                "experiment's base seed",
            )
            return
        # stdlib random module calls via `import random [as r]`.
        if len(chain) == 2 and head in random_aliases:
            yield self.finding(
                module, node,
                f"{head}.{attr}() uses stdlib random's global state; "
                "route randomness through a seeded np.random.default_rng "
                "Generator",
            )
            return
        # Wall-clock reads (except the audited per-symbol exemptions).
        allowed_symbols = WALL_CLOCK_ALLOWLIST.get(module.rel, frozenset())
        if symbol in allowed_symbols:
            return
        if (chain[-2], attr) in _WALL_CLOCK:
            yield self.finding(
                module, node,
                f"{'.'.join(chain)}() reads the wall clock; experiment "
                "inputs must be deterministic (pass timestamps in "
                "explicitly if one is genuinely needed)",
            )
