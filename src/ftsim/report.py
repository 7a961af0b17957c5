"""Savings reports and execution traces.

The trace is a plain text format: a ``TRACE v1`` header, then one record per
line. ``S`` records tile each node's timeline with states, ``C`` records are
message transfers, ``F`` records flag strategy begin/end points. A trace is
in trace order: by begin time, then node, then kind (``C``, ``F``, ``S``),
then end time. Times are fixed-point with three decimals; reports round
half-up to two decimals.
"""

from __future__ import annotations

import os
import stat
import tempfile
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Union

from .energy import FrequencyLevel, NodePlan, WaitAction, ghz_name


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
    """A run's plans and its profile's ``freqs``: a row at ``levels[0]``,
    f_max, takes no compute action, and a ``MIN_FREQ`` wait polls at ``levels[-1]``."""

    rows: list[NodePlan]
    levels: tuple[FrequencyLevel, ...]

    @property
    def total_j(self) -> float:
        return sum(p.saving_j for p in self.rows)


def _round2(x: float) -> str:
    return str(Decimal(repr(x)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _record_time(r: TraceRecord) -> float:
    """When the record begins, the first key of the trace order."""
    return r[2] if r.__class__ is CommRecord else r[1]


def _mode_for(path: Path) -> int:
    """The mode ``open(path, "w")`` leaves: a replaced file's own, else 0666
    less the umask (``mkstemp`` alone would give 0600)."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _atomic_write(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to a temporary file as they come, then put
    it in place of ``path``."""
    # a symlink's target is replaced, and the link kept, as open(path, "w") would
    path = Path(os.path.realpath(path))
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        os.fchmod(fd, _mode_for(path))
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _trace_lines(records: Iterable[TraceRecord]) -> Iterator[str]:
    yield "TRACE v1\n"
    # each record formats as the tuple it is, in field order
    for r in records:
        if isinstance(r, CommRecord):
            yield "C %s %s %.3f %.3f %s\n" % r
        elif isinstance(r, StateRecord):
            yield "S %s %.3f %.3f %s\n" % r
        else:
            yield "F %s %.3f %s %s\n" % r


def write_trace(records: Iterable[TraceRecord], path: str | Path) -> None:
    """Write the trace of ``records`` in the order given (a run's trace
    iterates in trace order), each line as it is formatted."""
    _atomic_write(path, _trace_lines(records))


def _wait_action_label(plan: NodePlan, f_min: FrequencyLevel) -> str:
    if plan.wait_action is WaitAction.SLEEP:
        return "sleep"
    if plan.wait_action is WaitAction.MIN_FREQ:
        return f"{ghz_name(f_min.ghz)} GHz"
    return "No action"


def _compute_action_label(plan: NodePlan, f_max: FrequencyLevel) -> str:
    if plan.compute_action is f_max:
        return "No action"
    return f"{ghz_name(plan.compute_action.ghz)} GHz"


def report_rows(report: SavingsReport) -> list[list[str]]:
    rows = []
    for plan in sorted(report.rows, key=lambda p: p.node):
        rows.append(
            [
                str(plan.node),
                _compute_action_label(plan, report.levels[0]),
                _round2(plan.t_comp / 60.0),
                _wait_action_label(plan, report.levels[-1]),
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
    _atomic_write(path, [render_report(report, format)])
