"""FLT001 — float-equality detector.

``==`` / ``!=`` against a float literal is almost always a latent bug in
numerical code: the value being compared went through arithmetic, and
exact equality silently turns a closed-form fast path (or a guard) into
dead code for inputs that are one ulp off.  The reproduction's Matern
dispatch (``smoothness == 0.5`` in geostat/covariance.py, since rewritten
with ``math.isclose``) is the canonical in-repo example.

Comparisons against ``0.0`` and integer-valued literals used as exact
sentinels are still flagged — if the comparison is genuinely intended to
be exact, say so with an inline ``# repro-lint: disable=FLT001`` and a
comment carrying the justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import ParsedModule, Rule, register
from ..findings import Finding, Severity


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # Negative literals parse as UnaryOp(USub, Constant).
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, float)
    ):
        return True
    return False


@register
class FloatEqualityRule(Rule):
    id = "FLT001"
    name = "float-equality"
    description = (
        "== / != against a float literal; use math.isclose / np.isclose "
        "or an explicit tolerance (inline-disable if the exact "
        "comparison is intentional)"
    )
    severity = Severity.WARNING
    scopes = ("src", "benchmarks")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                literal = next(
                    (x for x in (left, right) if _is_float_literal(x)), None
                )
                if literal is None:
                    continue
                text = ast.get_source_segment(module.source, literal) or "float"
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                yield self.finding(
                    module, node,
                    f"exact {symbol} comparison against float literal "
                    f"{text}; use math.isclose(..) or an explicit "
                    "tolerance",
                )
