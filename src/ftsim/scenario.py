"""Scenario files: a line-oriented ``key = value`` format with sections
``[system] [pattern] [checkpoint] [failure] [run]``.

Each number has a kind: durations accept ``s`` and ``min`` suffixes, powers
take ``w``, frequencies ``ghz``, and plain numbers (``mu1``, ``mu2``,
``alpha``, a ``freq`` row's beta and gamma, and the integer keys) none; a
unit of another kind is an error. Every number must be finite; integer keys
(``nodes``, ``node``, ``depth``, ``message_size``) take integral values
only. ``[pattern]`` accepts ``interval`` and ``repetition`` (durations) and
``message_size`` (an integer) and checks them, but does not model them: a
transfer takes no time, and the program is the ops as written. A ``depth``
of ``auto`` is the exhaustive search, the most ops any process holds.
``freq``, ``op`` and ``offset`` keys may repeat, all others may not; an
unknown section or key is an error. Everything is converted to seconds at
ingestion. ``nodes``, the op count once every ``every`` is expanded, and the
checkpoint timer steps of all nodes up to the horizon are capped at
``SIZE_LIMIT``.

Each process's ops go straight into columns (``pattern.OpColumns``), which
are sorted by (post offset, file order) once the ``[pattern]`` section is
read. An op's direction and mode become bits of its kind byte as its line is
read; the choice keys map their text through one dict each.

Every error names the line it is on, except a missing section; a missing key
or ``freq`` row names its section's header. The structural checks of
``Scenario.validate`` (failure node, horizon, checkpoint triggers, matched
ops, frequency table) run after parsing and name no line.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .cascade import DepthConfig
from .energy import FrequencyLevel, SystemProfile, WaitMode, ghz_name
from .fault import CheckpointPolicy, FailureSpec
from .pattern import KIND_NONBLOCKING, KIND_RECV, CommPattern, OpColumns


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class ValidationError(ValueError):
    """A parsed scenario violates a structural invariant."""


@dataclass
class Scenario:
    name: str
    profile: SystemProfile
    pattern: CommPattern
    ckpt: CheckpointPolicy
    failure: FailureSpec
    depth: DepthConfig
    horizon: float
    strategies_enabled: bool = True

    @property
    def nodes(self) -> int:
        return self.pattern.nodes

    def validate(self) -> None:
        if not (0 <= self.failure.node < self.nodes):
            raise ValidationError(
                f"failure node {self.failure.node} outside 0..{self.nodes - 1}"
            )
        if not math.isfinite(self.horizon):
            raise ValidationError(f"horizon must be finite, got {self.horizon}")
        if self.horizon <= self.failure.time:
            raise ValidationError("horizon must exceed the failure time")
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

# a value's kind, and each unit's kind and scale: a unit fits only its kind
_TIME, _POWER, _FREQUENCY, _PLAIN = "time", "power", "frequency", "plain"
_UNITS = {"s": (_TIME, 1.0), "min": (_TIME, 60.0), "w": (_POWER, 1.0), "ghz": (_FREQUENCY, 1.0)}
_REPEATABLE = {"freq", "op", "offset"}
_PROFILE_KINDS = {  # the kind of each optional [system] key, named as its SystemProfile field
    "t_go_sleep": _TIME, "t_wakeup": _TIME, "p_go_sleep": _POWER, "p_wakeup": _POWER,
    "p_sleep": _POWER, "p_idle_wait": _POWER, "mu1": _PLAIN, "mu2": _PLAIN,
}
_KEYS = {  # section -> its keys
    "system": {"freq", *_PROFILE_KINDS},
    "pattern": {"nodes", "mpi_mode", "op", "interval", "buffered", "wait_mode",
                "message_size", "repetition"},
    "checkpoint": {"interval", "duration", "anticipation", "alpha", "offset"},
    "failure": {"node", "time", "restart"},
    "run": {"horizon", "depth", "strategies"},
}


def _take_number(tokens: list[str], i: int, line: int | None, kind: str) -> tuple[float, int]:
    """The finite number of ``kind`` at ``tokens[i]``, scaled by the unit
    after it if that token is one, and the index of the next unread token."""
    if i >= len(tokens):
        raise ParseError("expected a number", line)
    text = tokens[i]
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", line) from None
    i += 1
    if i < len(tokens) and tokens[i].lower() in _UNITS:
        unit_kind, scale = _UNITS[tokens[i].lower()]
        if unit_kind != kind:
            raise ParseError(f"a {kind} value cannot take the {unit_kind} unit {tokens[i]!r}", line)
        value *= scale
        i += 1
    if not math.isfinite(value):
        raise ParseError(f"number {text!r} is not finite", line)
    return value, i


def _number(text: str, line: int | None, kind: str = _PLAIN) -> float:
    tokens = text.split()
    value, i = _take_number(tokens, 0, line, kind)
    if i == 1 and len(tokens) > 1:
        raise ParseError(f"unknown unit {tokens[1]!r}", line)
    if i < len(tokens):
        raise ParseError(f"unexpected {tokens[i]!r} after the number", line)
    return value


def _seconds(text: str, line: int | None) -> float:
    return _number(text, line, _TIME)


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
    and ``ftsim run --depth`` give it. ``auto`` is no cut: the most ops any
    process of ``pattern`` holds, more than a child can have with any one
    parent (and 1 when there are no ops)."""
    if text.strip().lower() == "auto":
        return DepthConfig(max([1, *map(len, pattern.processes)]))
    depth = _integer(text, line)
    if depth < 1:
        raise ParseError(f"depth must be 'auto' or an integer >= 1, got {depth}", line)
    return DepthConfig(depth)


class _Section:
    """One section's values: each key's ``(line, text)`` pairs in file order.

    A key is required, or defaults to text the loader gives (:meth:`value`),
    or is left to its field's dataclass default when absent (:meth:`given`)."""

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

    def number(self, key: str, kind: str = _PLAIN) -> float:
        return self.value(key, None, lambda text, line: _number(text, line, kind))

    def given(self, **fields: tuple[str, Callable[[str, int], object]]) -> dict[str, object]:
        """``{field: value}`` of each ``field=(key, parse)`` whose key is set, in order."""
        return {f: self.value(key, None, parse) for f, (key, parse) in fields.items() if key in self.values}

    def repeated(self, key: str) -> list[tuple[int, str]]:
        return self.values.get(key, [])


def _choice(key: str, values: dict[str, object]) -> Callable[[str, int], object]:
    """The parser of a choice key: the value ``values`` maps its lowercased text to."""

    def parse(text: str, line: int) -> object:
        try:
            return values[text.strip().lower()]
        except KeyError:
            allowed = " | ".join(values)
            raise ParseError(f"{key} must be one of {allowed}, got {text.strip()!r}", line) from None

    return parse


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


# a blocking op's kind bits by its direction's token: one dict lookup per op line
_DIRECTION_KINDS = {"send": 0, "recv": KIND_RECV}
# the values of the choice keys: whether ops are non-blocking, and the wait mode
_MPI_MODES = {"blocking": False, "nonblocking": True}
_WAIT_MODES = {m.value: m for m in WaitMode}


def _too_many_ops(line: int) -> ParseError:
    return ParseError(f"the ops expand past the limit of {SIZE_LIMIT}", line)


def _parse_op(text: str, line: int, order: int, per_proc: list, nonblocking: bool) -> int:
    """``<proc> send|recv <peer> @ <t> [wait @ <t>] [every <dt> until <t>]``

    Appends each op, in file order, to its process's raw columns in
    ``per_proc`` (made on its first op): post offsets, wait offsets, peers
    and kinds. ``order`` counts the ops of the file so far; returns the new
    count."""
    tokens = text.split()
    try:
        proc = int(tokens[0])
        kind = _DIRECTION_KINDS[tokens[1].lower()]
        peer = int(tokens[2])
    except (IndexError, ValueError, KeyError):
        raise ParseError(f"bad op spec {text!r}", line) from None
    nodes = len(per_proc)
    for role, node in (("process", proc), ("peer", peer)):
        if not (0 <= node < nodes):
            raise ParseError(f"op {role} {node} outside 0..{nodes - 1}", line)
    if len(tokens) < 5 or tokens[3] != "@":
        raise ParseError(f"op needs '@ <time>' {text!r}", line)
    post, i = _take_number(tokens, 4, line, _TIME)
    wait = every = until = None
    while i < len(tokens):
        word = tokens[i].lower()
        if word == "wait":
            if i + 1 >= len(tokens) or tokens[i + 1] != "@":
                raise ParseError("wait needs '@ <time>'", line)
            wait, i = _take_number(tokens, i + 2, line, _TIME)
        elif word == "every":
            every, i = _take_number(tokens, i + 1, line, _TIME)
            if every <= 0:
                raise ParseError(f"'every' needs a positive step, got {every}", line)
            if i >= len(tokens) or tokens[i].lower() != "until":
                raise ParseError("'every' needs 'until <time>'", line)
            until, i = _take_number(tokens, i + 1, line, _TIME)
        else:
            raise ParseError(f"unexpected token {tokens[i]!r}", line)
    if every is not None and order + 1 + max(0.0, (until - post) / every) > SIZE_LIMIT:
        raise _too_many_ops(line)
    columns = per_proc[proc]
    if columns is None:
        columns = per_proc[proc] = [array("d"), array("d"), array("i"), bytearray()]
    posts, waits, peers, kinds = columns
    # an op with an explicit wait is non-blocking; a non-blocking op without
    # one tests right away, its wait at its post
    if nonblocking or wait is not None:
        kind |= KIND_NONBLOCKING
    while True:
        if order >= SIZE_LIMIT:  # also where a step too small to move ``post`` repeats it
            raise _too_many_ops(line)
        posts.append(post)
        waits.append(post if wait is None else wait)
        peers.append(peer)
        kinds.append(kind)
        order += 1
        if every is None:
            break
        post += every
        if wait is not None:
            wait += every
        if post > until + 1e-9:
            break
    return order


def _columns(per_proc: list, proc: int) -> OpColumns:
    """Process ``proc``'s raw columns, taken out of ``per_proc`` so that each
    is freed once its process's are built, as the pattern's columns: its ops
    sorted by (post, file order), a stable sort of their positions by post."""
    raw, per_proc[proc] = per_proc[proc], None
    if raw is None:
        return OpColumns(proc, array("d"), array("i"), b"")
    posts, waits, peers, kinds = raw
    keys = posts.tolist()
    # lists, not tuples: freed small tuples stay on CPython's free lists and
    # would raise the peak memory of the simulation that follows
    by_post = sorted(range(len(keys)), key=keys.__getitem__)
    sorted_keys = [keys[i] for i in by_post]
    offsets = array("d", bytes(16 * len(by_post)))
    if sorted_keys == keys:
        # the sort moved no op, as in most processes: the raw columns serve
        offsets[0::2], offsets[1::2] = posts, waits
        return OpColumns(proc, offsets, peers, bytes(kinds))
    offsets[0::2] = array("d", sorted_keys)
    offsets[1::2] = array("d", [waits[i] for i in by_post])
    peers = array("i", [peers[i] for i in by_post])
    return OpColumns(proc, offsets, peers, bytes([kinds[i] for i in by_post]))


# the kinds of a ``freq`` row's fields: ghz, p_comp, beta, p_ckpt, gamma [, p_active_wait]
_FREQ_KINDS = (_FREQUENCY, _POWER, _PLAIN, _POWER, _PLAIN, _POWER)


def _parse_profile(sec: _Section) -> SystemProfile:
    freqs = []
    rows: dict[float, int] = {}  # each row's GHz -> its line: a level is named by its GHz
    for lineno, value in sec.repeated("freq"):
        fields = value.split(",")
        if len(fields) not in (5, 6):
            raise ParseError("freq needs: ghz, p_comp, beta, p_ckpt, gamma [, p_active_wait]", lineno)
        level = FrequencyLevel(*(_number(f, lineno, k) for f, k in zip(fields, _FREQ_KINDS)))
        if level.ghz in rows:
            raise ParseError(
                f"freq {ghz_name(level.ghz)} GHz repeats the row on line {rows[level.ghz]}", lineno
            )
        rows[level.ghz] = lineno
        freqs.append(level)
    if not freqs:
        raise ParseError(f"[{sec.name}] needs at least one freq row", sec.header)
    freqs.sort(key=lambda f: -f.ghz)
    numbers = {key: sec.number(key, kind) for key, kind in _PROFILE_KINDS.items() if key in sec.values}
    return SystemProfile(freqs=tuple(freqs), **numbers)


def loads_scenario(text: str, name: str = "scenario") -> Scenario:
    sections = _parse_sections(text)
    for required in _KEYS:
        if required not in sections:
            raise ParseError(f"missing section [{required}]")
    pat_sec, ck_sec, fail_sec, run_sec = (
        sections[s] for s in ("pattern", "checkpoint", "failure", "run")
    )

    nodes = pat_sec.value("nodes", None, _node_count)
    nonblocking = pat_sec.value("mpi_mode", "blocking", _choice("mpi_mode", _MPI_MODES))
    per_proc: list = [None] * nodes
    order = 0
    for lineno, value in pat_sec.repeated("op"):
        order = _parse_op(value, lineno, order, per_proc, nonblocking)
    processes = [_columns(per_proc, proc) for proc in range(nodes)]

    # checked when set but not modelled: a transfer takes no time, and the
    # program is the ops as written
    pat_sec.given(interval=("interval", _seconds), repetition=("repetition", _seconds),
                  message_size=("message_size", _integer))
    pattern = CommPattern(processes, **pat_sec.given(
        buffered=("buffered", _boolean), wait_mode=("wait_mode", _choice("wait_mode", _WAIT_MODES))
    ))

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
            offsets[proc] = _number(time_text, lineno, _TIME)
        else:
            offsets.update(dict.fromkeys(range(nodes), _number(value, lineno, _TIME)))
    try:
        ckpt = CheckpointPolicy(
            interval=ck_sec.number("interval", _TIME),
            duration=ck_sec.number("duration", _TIME),
            **ck_sec.given(anticipation_enabled=("anticipation", _boolean),
                           anticipation_fraction=("alpha", _number)),
            phase_offsets=offsets,
        )
        failure = FailureSpec(
            node=fail_sec.value("node", None, _integer),
            time=fail_sec.number("time", _TIME),
            restart_duration=fail_sec.number("restart", _TIME),
        )
    except ParseError:
        raise
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    profile = _parse_profile(sections["system"])

    scenario = Scenario(
        name=name,
        profile=profile,
        pattern=pattern,
        ckpt=ckpt,
        failure=failure,
        depth=run_sec.value("depth", "auto", lambda text, line: parse_depth(text, pattern, line)),
        horizon=run_sec.number("horizon", _TIME),
        **run_sec.given(strategies_enabled=("strategies", _boolean)),
    )
    scenario.validate()
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return loads_scenario(path.read_text(), name=path.stem)
