"""Text rendering of tables and figure data (paper-style rows)."""

from __future__ import annotations

from typing import Dict, Sequence

from ..measure.bank import MeasurementBank
from .runner import ScenarioEvaluation


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for ri, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if ri == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def sweep_table(bank: MeasurementBank) -> str:
    """Figure 2/5 style rows: n, mean, sd, LP bound (and rigid line)."""
    headers = ["n_fact", "mean [s]", "sd [s]", "LP [s]"]
    has_rigid = bool(bank.rigid)
    if has_rigid:
        headers.append("rigid gen=fact [s]")
    rows = []
    for n in bank.actions:
        row = [n, bank.mean(n), bank.sd(n), bank.lp[n]]
        if has_rigid:
            row.append(bank.rigid.get(n, float("nan")))
        rows.append(row)
    return f"{bank.label}\n" + format_table(headers, rows)


def evaluation_table(evaluation: ScenarioEvaluation) -> str:
    """One Figure 6 panel as text."""
    headers = ["strategy", "group", "mean total [s]", "sd [s]", "gain vs all nodes"]
    rows = []
    for s in evaluation.summaries:
        rows.append([s.name, s.group, s.mean_total, s.sd_total, f"{s.gain_pct:+.1f}%"])
    header = (
        f"{evaluation.label}\n"
        f"  all-nodes baseline: {evaluation.all_nodes_mean:.1f} s   "
        f"best-known (n={evaluation.best_action}): {evaluation.oracle_mean:.1f} s"
    )
    return header + "\n" + format_table(headers, rows)


def figure6_matrix(evaluations: Dict[str, ScenarioEvaluation]) -> str:
    """Gain matrix: scenarios x strategies (the Figure 6 percentages)."""
    if not evaluations:
        return "(no scenarios)"
    names = [s.name for s in next(iter(evaluations.values())).summaries]
    headers = ["scenario"] + names + ["best/oracle gain"]
    rows = []
    for key in sorted(evaluations):
        ev = evaluations[key]
        oracle_gain = (
            (ev.all_nodes_mean - ev.oracle_mean) / ev.all_nodes_mean * 100.0
        )
        rows.append(
            [f"({key})"]
            + [f"{s.gain_pct:+.1f}%" for s in ev.summaries]
            + [f"{oracle_gain:+.1f}%"]
        )
    return format_table(headers, rows)
