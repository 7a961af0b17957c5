"""Savings reports and execution traces.

The trace is a plain text format: a ``TRACE v1`` header, then one record per
line. ``S`` records tile each node's timeline with states, ``C`` records are
message transfers, ``F`` records flag strategy begin/end points. Times are
fixed-point with three decimals; reports round half-up to two decimals.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path
from typing import NamedTuple, Union

from .energy import NodePlan, WaitAction


# named tuples: immutable, and built and read in C, as a run makes thousands
class StateRecord(NamedTuple):
    node: int
    t0: float
    t1: float
    state: str


class CommRecord(NamedTuple):
    src: int
    dst: int
    t_post: float
    t_complete: float
    mode: str


class FlagRecord(NamedTuple):
    node: int
    t: float
    edge: str  # BEGIN | END
    label: str


TraceRecord = Union[StateRecord, CommRecord, FlagRecord]


@dataclass
class SavingsReport:
    rows: list[NodePlan]
    total_j: float
    max_ghz: float = 0.0
    min_ghz: float = 0.0


def _round2(x: float) -> str:
    return str(Decimal(repr(x)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _record_key(r: TraceRecord) -> tuple:
    if isinstance(r, StateRecord):
        return (r.t0, r.node, "S", r.t1)
    if isinstance(r, CommRecord):
        return (r.t_post, r.src, "C", r.t_complete)
    return (r.t, r.node, "F", 0.0)


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace(records: list[TraceRecord], path: str | Path) -> None:
    lines = ["TRACE v1"]
    for r in sorted(records, key=_record_key):
        if isinstance(r, StateRecord):
            lines.append(f"S {r.node} {r.t0:.3f} {r.t1:.3f} {r.state}")
        elif isinstance(r, CommRecord):
            lines.append(f"C {r.src} {r.dst} {r.t_post:.3f} {r.t_complete:.3f} {r.mode}")
        else:
            lines.append(f"F {r.node} {r.t:.3f} {r.edge} {r.label}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _wait_action_label(plan: NodePlan, min_ghz: float) -> str:
    if plan.wait_action is WaitAction.SLEEP:
        return "sleep"
    if plan.wait_action is WaitAction.MIN_FREQ:
        return f"{min_ghz:g} GHz"
    return "No action"


def _compute_action_label(plan: NodePlan, max_ghz: float) -> str:
    if plan.compute_action.ghz == max_ghz:
        return "No action"
    return f"{plan.compute_action.ghz:g} GHz"


def report_rows(report: SavingsReport) -> list[list[str]]:
    rows = []
    for plan in sorted(report.rows, key=lambda p: p.node):
        rows.append(
            [
                str(plan.node),
                _compute_action_label(plan, report.max_ghz),
                _round2(plan.t_comp / 60.0),
                _wait_action_label(plan, report.min_ghz),
                _round2(plan.t_wait / 60.0),
                _round2(plan.tt / 60.0),
                _round2(plan.saving_j),
                _round2(plan.rate_j_s),
                _round2(plan.saving_pct),
            ]
        )
    return rows


HEADER = [
    "node",
    "compute_action",
    "t_comp_min",
    "wait_action",
    "t_wait_min",
    "tt_min",
    "save_j",
    "save_rate_j_s",
    "save_pct",
]


def render_report(report: SavingsReport, format: str) -> str:
    rows = report_rows(report)
    total = _round2(report.total_j)
    if format == "csv":
        lines = [",".join(HEADER)]
        lines += [",".join(row) for row in rows]
        lines.append(f"TOTAL,,,,,,{total},,")
        return "\n".join(lines) + "\n"
    if format == "text":
        table = [HEADER] + rows + [["TOTAL", "", "", "", "", "", total, "", ""]]
        widths = [max(len(line[i]) for line in table) for i in range(len(HEADER))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in table]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def write_report(report: SavingsReport, path: str | Path, format: str) -> None:
    _atomic_write(path, render_report(report, format))
