"""Scenario files: a line-oriented ``key = value`` format with sections
``[system] [pattern] [checkpoint] [failure] [run]``.

Durations accept ``s`` and ``min`` suffixes; powers take ``w``; frequencies
``ghz``. Every number must be finite; integer keys (``nodes``, ``node``,
``message_size``, ``depth``) take integral values only. ``freq``, ``op`` and
``offset`` keys may repeat, all others may not; an unknown section or key is
an error. Everything is converted to seconds at ingestion. ``nodes``, the op
count once every ``every`` is expanded, and the checkpoint timer steps of all
nodes up to the horizon are capped at ``SIZE_LIMIT``.

Every error names the line it is on, except a missing section; a missing key
or ``freq`` row names its section's header. The structural checks of
``Scenario.validate`` (failure node, horizon, checkpoint triggers, matched
ops, frequency table) run after parsing and name no line.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .cascade import DepthConfig, pattern_depth
from .energy import FrequencyLevel, SystemProfile, WaitMode
from .fault import CheckpointPolicy, FailureSpec
from .pattern import CommOp, CommPattern, Direction, OpMode


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class ValidationError(ValueError):
    """A parsed scenario violates a structural invariant."""


@dataclass
class Scenario:
    name: str
    nodes: int
    profile: SystemProfile
    pattern: CommPattern
    ckpt: CheckpointPolicy
    failure: FailureSpec
    depth: DepthConfig
    horizon: float
    strategies_enabled: bool = True

    def validate(self) -> None:
        if not (0 <= self.failure.node < self.nodes):
            raise ValidationError(
                f"failure node {self.failure.node} outside 0..{self.nodes - 1}"
            )
        if not math.isfinite(self.horizon):
            raise ValidationError(f"horizon must be finite, got {self.horizon}")
        if self.horizon <= self.failure.time:
            raise ValidationError("horizon must exceed the failure time")
        if len(self.pattern.processes) != self.nodes:
            raise ValidationError("pattern process count differs from nodes")
        steps = 0.0
        for node in range(self.nodes):
            try:
                steps += self.ckpt.trigger_steps(node, self.horizon)
            except ValueError as exc:
                raise ValidationError(str(exc)) from exc
        if steps > SIZE_LIMIT:
            raise ValidationError(
                f"the checkpoint triggers up to the horizon are past the limit of {SIZE_LIMIT}"
            )
        try:
            self.pattern.validate()
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        fmax = self.profile.f_max
        if fmax.beta != 1.0 or fmax.gamma != 1.0:
            raise ValidationError("maximum-frequency row must have beta = gamma = 1")
        for prev, cur in zip(self.profile.freqs, self.profile.freqs[1:]):
            if cur.beta < prev.beta or cur.gamma < prev.gamma:
                raise ValidationError("beta and gamma must not decrease as GHz decreases")
        if not (self.profile.mu1 >= 1.0):
            raise ValidationError("mu1 must be >= 1")
        if not (0 < self.profile.mu2 <= 1.0):
            raise ValidationError("mu2 must be in (0, 1]")


# the most nodes, and the most ops once every ``every`` line is expanded, a
# file may ask for: both are checked before the lists they size are built.
# Also the most checkpoint timer steps of all nodes up to the horizon.
SIZE_LIMIT = 1_000_000

_UNITS = {"s": 1.0, "min": 60.0, "ghz": 1.0, "w": 1.0}
_REPEATABLE = {"freq", "op", "offset"}
_KEYS = {  # section -> its keys
    "system": {"freq", "t_go_sleep", "t_wakeup", "p_go_sleep", "p_wakeup", "p_sleep",
               "p_idle_wait", "mu1", "mu2"},
    "pattern": {"nodes", "mpi_mode", "op", "interval", "buffered", "wait_mode",
                "message_size", "repetition"},
    "checkpoint": {"interval", "duration", "anticipation", "alpha", "offset"},
    "failure": {"node", "time", "restart"},
    "run": {"horizon", "depth", "strategies"},
}


def _take_number(tokens: list[str], i: int, line: int | None) -> tuple[float, int]:
    """The finite number at ``tokens[i]``, scaled by the unit after it if
    that token is one, and the index of the next unread token."""
    if i >= len(tokens):
        raise ParseError("expected a number", line)
    text = tokens[i]
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", line) from None
    i += 1
    if i < len(tokens) and tokens[i].lower() in _UNITS:
        value *= _UNITS[tokens[i].lower()]
        i += 1
    if not math.isfinite(value):
        raise ParseError(f"number {text!r} is not finite", line)
    return value, i


def _number(text: str, line: int | None) -> float:
    tokens = text.split()
    value, i = _take_number(tokens, 0, line)
    if i == 1 and len(tokens) > 1:
        raise ParseError(f"unknown unit {tokens[1]!r}", line)
    if i < len(tokens):
        raise ParseError(f"unexpected {tokens[i]!r} after the number", line)
    return value


def _integer(text: str, line: int | None) -> int:
    value = _number(text, line)
    if not value.is_integer():
        raise ParseError(f"expected an integer, got {text.strip()!r}", line)
    return int(value)


def _node_count(text: str, line: int) -> int:
    nodes = _integer(text, line)
    if nodes > SIZE_LIMIT:
        raise ParseError(f"nodes = {nodes} is past the limit of {SIZE_LIMIT}", line)
    return nodes


def _boolean(text: str, line: int) -> bool:
    lowered = text.strip().lower()
    if lowered in {"true", "on", "yes", "1"}:
        return True
    if lowered in {"false", "off", "no", "0"}:
        return False
    raise ParseError(f"bad boolean {text!r}", line)


def parse_depth(text: str, pattern: CommPattern, line: int | None = None) -> DepthConfig:
    """The analysis depth, ``auto`` or an integer >= 1, as the ``depth`` key
    and ``ftsim run --depth`` give it."""
    if text.strip().lower() == "auto":
        return DepthConfig(pattern_depth(pattern))
    depth = _integer(text, line)
    if depth < 1:
        raise ParseError(f"depth must be 'auto' or an integer >= 1, got {depth}", line)
    return DepthConfig(depth)


class _Section:
    """One section's values: each key's ``(line, text)`` pairs in file order.

    The accessors parse a key's value, or ``default`` (text, as a file would
    give it) when the key is absent; without a default the key is required."""

    def __init__(self, name: str, header: int):
        self.name = name
        self.header = header
        self.values: dict[str, list[tuple[int, str]]] = {}

    def value(self, key: str, default: str | None, parse: Callable[[str, int], object]):
        if key in self.values:
            line, text = self.values[key][0]
        elif default is None:
            raise ParseError(f"missing key {key!r} in [{self.name}]", self.header)
        else:
            line, text = self.header, default
        return parse(text, line)

    def number(self, key: str, default: str | None = None) -> float:
        return self.value(key, default, _number)

    def integer(self, key: str, default: str | None = None) -> int:
        return self.value(key, default, _integer)

    def boolean(self, key: str, default: str | None = None) -> bool:
        return self.value(key, default, _boolean)

    def choice(self, key: str, kind: type[enum.Enum], default: str | None = None):
        def parse(text: str, line: int) -> enum.Enum:
            try:
                return kind(text.strip().lower())
            except ValueError:
                allowed = " | ".join(member.value for member in kind)
                raise ParseError(
                    f"{key} must be one of {allowed}, got {text.strip()!r}", line
                ) from None

        return self.value(key, default, parse)

    def repeated(self, key: str) -> list[tuple[int, str]]:
        return self.values.get(key, [])


def _parse_sections(text: str) -> dict[str, _Section]:
    sections: dict[str, _Section] = {}
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip().lower()
            if name not in _KEYS:
                raise ParseError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", lineno)
            current = sections[name] = _Section(name, lineno)
            continue
        if current is None:
            raise ParseError("content before any section header", lineno)
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        key = key.lower()
        if key not in _KEYS[current.name]:
            raise ParseError(f"unknown key {key!r} in [{current.name}]", lineno)
        if key in current.values and key not in _REPEATABLE:
            raise ParseError(f"duplicate key {key!r} in [{current.name}]", lineno)
        current.values.setdefault(key, []).append((lineno, value))
    return sections


def _too_many_ops(line: int) -> ParseError:
    return ParseError(f"the ops expand past the limit of {SIZE_LIMIT}", line)


def _parse_op(text: str, line: int, order: int, per_proc: list[list[list]]) -> int:
    """``<proc> send|recv <peer> @ <t> [wait @ <t>] [every <dt> until <t>]``

    Appends one ``[post, order, peer, direction, wait]`` record per op to its
    process's list, numbering them from ``order`` in file order; returns the
    next number."""
    tokens = text.split()
    try:
        proc = int(tokens[0])
        direction = Direction(tokens[1].lower())
        peer = int(tokens[2])
    except (IndexError, ValueError):
        raise ParseError(f"bad op spec {text!r}", line) from None
    nodes = len(per_proc)
    for role, node in (("process", proc), ("peer", peer)):
        if not (0 <= node < nodes):
            raise ParseError(f"op {role} {node} outside 0..{nodes - 1}", line)
    if len(tokens) < 5 or tokens[3] != "@":
        raise ParseError(f"op needs '@ <time>' {text!r}", line)
    post, i = _take_number(tokens, 4, line)
    wait = every = until = None
    while i < len(tokens):
        word = tokens[i].lower()
        if word == "wait":
            if i + 1 >= len(tokens) or tokens[i + 1] != "@":
                raise ParseError("wait needs '@ <time>'", line)
            wait, i = _take_number(tokens, i + 2, line)
        elif word == "every":
            every, i = _take_number(tokens, i + 1, line)
            if every <= 0:
                raise ParseError(f"'every' needs a positive step, got {every}", line)
            if i >= len(tokens) or tokens[i].lower() != "until":
                raise ParseError("'every' needs 'until <time>'", line)
            until, i = _take_number(tokens, i + 1, line)
        else:
            raise ParseError(f"unexpected token {tokens[i]!r}", line)
    if every is not None and order + 1 + max(0.0, (until - post) / every) > SIZE_LIMIT:
        raise _too_many_ops(line)
    # lists, not tuples: freed small tuples stay on CPython's free list and
    # would raise the peak memory of the simulation that follows
    records = per_proc[proc]
    while True:
        if order >= SIZE_LIMIT:  # also where a step too small to move ``post`` repeats it
            raise _too_many_ops(line)
        records.append([post, order, peer, direction, wait])
        order += 1
        if every is None:
            break
        post += every
        if wait is not None:
            wait += every
        if post > until + 1e-9:
            break
    return order


def _build_ops(per_proc: list[list[list]], mpi_mode: OpMode) -> list[list[CommOp]]:
    processes: list[list[CommOp]] = []
    for proc, records in enumerate(per_proc):
        records.sort()  # by (post, file order); the order is unique
        processes.append([
            # a non-blocking op without an explicit wait tests right away
            CommOp(idx, proc, peer, direction, mpi_mode, post, post) if wait is None
            else CommOp(idx, proc, peer, direction, OpMode.NONBLOCKING, post, wait)
            for idx, (post, _, peer, direction, wait) in enumerate(records)
        ])
    return processes


def _parse_profile(sec: _Section) -> SystemProfile:
    freqs = []
    for lineno, value in sec.repeated("freq"):
        fields = value.split(",")
        if len(fields) not in (5, 6):
            raise ParseError("freq needs: ghz, p_comp, beta, p_ckpt, gamma [, p_active_wait]", lineno)
        # ghz, p_comp, beta, p_ckpt, gamma [, p_active_wait]
        freqs.append(FrequencyLevel(*(_number(f, lineno) for f in fields)))
    if not freqs:
        raise ParseError(f"[{sec.name}] needs at least one freq row", sec.header)
    freqs.sort(key=lambda f: -f.ghz)
    return SystemProfile(
        freqs=tuple(freqs),
        t_go_sleep=sec.number("t_go_sleep", "25 s"),
        t_wakeup=sec.number("t_wakeup", "5 s"),
        p_go_sleep=sec.number("p_go_sleep", "51 w"),
        p_wakeup=sec.number("p_wakeup", "91 w"),
        p_sleep=sec.number("p_sleep", "12 w"),
        p_idle_wait=sec.number("p_idle_wait", "60 w"),
        mu1=sec.number("mu1", "2.0"),
        mu2=sec.number("mu2", "0.9"),
    )


def loads_scenario(text: str, name: str = "scenario") -> Scenario:
    sections = _parse_sections(text)
    for required in _KEYS:
        if required not in sections:
            raise ParseError(f"missing section [{required}]")
    pat_sec, ck_sec, fail_sec, run_sec = (
        sections[s] for s in ("pattern", "checkpoint", "failure", "run")
    )

    nodes = pat_sec.value("nodes", None, _node_count)
    mpi_mode = pat_sec.choice("mpi_mode", OpMode, "blocking")
    per_proc: list[list[list]] = [[] for _ in range(nodes)]
    order = 0
    for lineno, value in pat_sec.repeated("op"):
        order = _parse_op(value, lineno, order, per_proc)

    pattern = CommPattern(
        processes=_build_ops(per_proc, mpi_mode),
        interval=pat_sec.number("interval", "0 s"),
        buffered=pat_sec.boolean("buffered", "false"),
        wait_mode=pat_sec.choice("wait_mode", WaitMode, "active"),
        message_size=pat_sec.integer("message_size", "0"),
        repetition=pat_sec.number("repetition", "0 s"),
    )

    offsets: dict[int, float] = {}
    for lineno, value in ck_sec.repeated("offset"):
        if ":" in value:
            proc_text, time_text = value.split(":", 1)
            try:
                proc = int(proc_text)
            except ValueError:
                raise ParseError(f"bad offset process {proc_text!r}", lineno) from None
            if not (0 <= proc < nodes):
                raise ParseError(f"offset process {proc} outside 0..{nodes - 1}", lineno)
            offsets[proc] = _number(time_text, lineno)
        else:
            offsets.update(dict.fromkeys(range(nodes), _number(value, lineno)))
    try:
        ckpt = CheckpointPolicy(
            interval=ck_sec.number("interval"),
            duration=ck_sec.number("duration"),
            anticipation_enabled=ck_sec.boolean("anticipation", "off"),
            anticipation_fraction=ck_sec.number("alpha", "0.5"),
            phase_offsets=offsets,
        )
        failure = FailureSpec(
            node=fail_sec.integer("node"),
            time=fail_sec.number("time"),
            restart_duration=fail_sec.number("restart"),
        )
    except ParseError:
        raise
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    profile = _parse_profile(sections["system"])

    scenario = Scenario(
        name=name,
        nodes=nodes,
        profile=profile,
        pattern=pattern,
        ckpt=ckpt,
        failure=failure,
        depth=run_sec.value("depth", "auto", lambda text, line: parse_depth(text, pattern, line)),
        horizon=run_sec.number("horizon"),
        strategies_enabled=run_sec.boolean("strategies", "on"),
    )
    scenario.validate()
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return loads_scenario(path.read_text(), name=path.stem)
