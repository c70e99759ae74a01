"""POOL001 — process-pool callables must be module-level functions.

The parallel harness and the parallel sweep ship work to a
``ProcessPoolExecutor``; workers import the submitted callable by its
qualified name (pickle protocol).  A lambda or a ``def`` nested inside
the submitting function cannot be pickled at all, and a bound method
drags its whole object graph across the boundary.

Flagged inside ``src/``: the first argument of ``.map``/``.submit``
(and friends) on a variable bound to a process pool, and the
``initializer=`` of a pool constructor, when it is

* a ``lambda``;
* a function defined inside the enclosing function;
* an attribute or bound method (``self.work``, ``obj.fn``) — except an
  attribute of an imported module (``parallel._pool_run``).

The check is syntactic and per module: a callable bound through a local
variable (``fn = partial(...)``) is not followed.  Shipping a stateful
bank is guarded at run time by ``run_cells`` instead.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from ..engine import ParsedModule, Rule, register
from ..findings import Finding, Severity

#: Dotted names of callables that construct a process pool.
POOL_CONSTRUCTORS = {
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
}

#: Pool methods whose first argument is shipped to the workers.
POOL_SUBMIT_METHODS = {"submit", "map", "imap", "imap_unordered",
                       "apply", "apply_async", "starmap"}


def _imports(tree: ast.AST) -> Dict[str, str]:
    """Local name → dotted target for every import in the module."""
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", 1)[0]
                    out[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            for alias in node.names:
                out[alias.asname or alias.name] = f"{base}.{alias.name}"
    return out


def _dotted(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """``cf.ProcessPoolExecutor`` → ``concurrent.futures.ProcessPoolExecutor``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(imports.get(node.id, node.id))
    return ".".join(reversed(parts))


def _scope_nodes(body):
    """Nodes of one function scope; nested defs are yielded, not entered."""
    stack = list(reversed(body))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _qualify(where: str, name: str) -> str:
    return name if where == "<module>" else f"{where}.{name}"


@register
class PoolCallableRule(Rule):
    id = "POOL001"
    name = "pool-callable-module-level"
    description = (
        "callable submitted to a process pool must be a module-level "
        "function (pickle-reachable by qualified name)"
    )
    severity = Severity.ERROR
    scopes = ("src",)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        imports = _imports(module.tree)
        yield from self._check_scope(
            module, module.tree.body, "<module>", set(), imports,
        )

    def _check_scope(self, module: ParsedModule, body, where: str,
                     nested: Set[str], imports: Dict[str, str]
                     ) -> Iterator[Finding]:
        nodes = list(_scope_nodes(body))
        pools: Set[str] = set()
        for node in nodes:
            if isinstance(node, ast.withitem) and \
                    isinstance(node.optional_vars, ast.Name) and \
                    self._is_pool(node.context_expr, imports):
                pools.add(node.optional_vars.id)
            elif isinstance(node, ast.Assign) and \
                    self._is_pool(node.value, imports):
                pools.update(t.id for t in node.targets
                             if isinstance(t, ast.Name))
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = nested | {
                    d.name for d in ast.walk(node)
                    if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and d is not node
                }
                yield from self._check_scope(
                    module, node.body, _qualify(where, node.name), inner,
                    imports)
            elif isinstance(node, ast.ClassDef):
                yield from self._check_scope(
                    module, node.body, _qualify(where, node.name), nested,
                    imports)
            elif not isinstance(node, ast.Call):
                continue
            elif self._is_pool(node, imports):
                for kw in node.keywords:
                    if kw.arg == "initializer":
                        yield from self._check_callee(
                            module, kw.value, "initializer", where,
                            nested, imports)
            elif isinstance(node.func, ast.Attribute) and \
                    node.func.attr in POOL_SUBMIT_METHODS and \
                    isinstance(node.func.value, ast.Name) and \
                    node.func.value.id in pools and node.args:
                yield from self._check_callee(
                    module, node.args[0], f"pool.{node.func.attr} target",
                    where, nested, imports)

    @staticmethod
    def _is_pool(node: ast.AST, imports: Dict[str, str]) -> bool:
        return isinstance(node, ast.Call) and \
            _dotted(node.func, imports) in POOL_CONSTRUCTORS

    def _check_callee(self, module: ParsedModule, node: ast.AST, role: str,
                      where: str, nested: Set[str],
                      imports: Dict[str, str]) -> Iterator[Finding]:
        if isinstance(node, ast.Lambda):
            why = "a lambda"
        elif isinstance(node, ast.Name) and node.id in nested:
            why = "a nested function"
        elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name)
                and node.value.id in imports):
            why = "an attribute or bound method"
        else:
            return
        text = ast.get_source_segment(module.source, node) or "…"
        yield self.finding(
            module, node,
            f"{text} used as {role} in {where} is {why}; workers can "
            "only import module-level functions",
        )
