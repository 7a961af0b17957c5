"""Scenario files: a line-oriented ``key = value`` format with sections
``[system] [pattern] [checkpoint] [failure] [run]``.

Durations accept ``s`` and ``min`` suffixes; powers take ``w``; frequencies
``ghz``. ``freq``, ``op`` and ``offset`` keys may repeat, all others may
not. Everything is converted to seconds at ingestion.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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
        if self.horizon <= self.failure.time:
            raise ValidationError("horizon must exceed the failure time")
        if len(self.pattern.processes) != self.nodes:
            raise ValidationError("pattern process count differs from nodes")
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


_UNITS = {"s": 1.0, "min": 60.0, "ghz": 1.0, "w": 1.0}
_REPEATABLE = {"freq", "op", "offset"}


def _number(text: str, line: int) -> float:
    parts = text.split()
    if not parts:
        raise ParseError("missing value", line)
    try:
        value = float(parts[0])
    except ValueError:
        raise ParseError(f"bad number {parts[0]!r}", line) from None
    if len(parts) == 1:
        return value
    unit = parts[1].lower()
    if unit not in _UNITS:
        raise ParseError(f"unknown unit {parts[1]!r}", line)
    return value * _UNITS[unit]


def _boolean(text: str, line: int) -> bool:
    lowered = text.strip().lower()
    if lowered in {"true", "on", "yes", "1"}:
        return True
    if lowered in {"false", "off", "no", "0"}:
        return False
    raise ParseError(f"bad boolean {text!r}", line)


def _take_timed(tokens: list[str], i: int, line: int) -> tuple[float, int]:
    """Consume a number with optional unit from a token list."""
    if i >= len(tokens):
        raise ParseError("expected a number", line)
    try:
        value = float(tokens[i])
    except ValueError:
        raise ParseError(f"bad number {tokens[i]!r}", line) from None
    if i + 1 < len(tokens) and tokens[i + 1].lower() in _UNITS:
        return value * _UNITS[tokens[i + 1].lower()], i + 2
    return value, i + 1


def _parse_op_line(text: str, line: int) -> list[dict]:
    """``<proc> send|recv <peer> @ <t> [wait @ <t>] [every <dt> until <t>]``"""
    tokens = text.split()
    try:
        proc = int(tokens[0])
        direction = Direction(tokens[1].lower())
        peer = int(tokens[2])
    except (IndexError, ValueError):
        raise ParseError(f"bad op spec {text!r}", line) from None
    if len(tokens) < 5 or tokens[3] != "@":
        raise ParseError(f"op needs '@ <time>' {text!r}", line)
    post, i = _take_timed(tokens, 4, line)
    wait = None
    every = until = None
    while i < len(tokens):
        word = tokens[i].lower()
        if word == "wait":
            if i + 1 >= len(tokens) or tokens[i + 1] != "@":
                raise ParseError("wait needs '@ <time>'", line)
            wait, i = _take_timed(tokens, i + 2, line)
        elif word == "every":
            every, i = _take_timed(tokens, i + 1, line)
            if i >= len(tokens) or tokens[i].lower() != "until":
                raise ParseError("'every' needs 'until <time>'", line)
            until, i = _take_timed(tokens, i + 1, line)
        else:
            raise ParseError(f"unexpected token {tokens[i]!r}", line)
    out = []
    t, w = post, wait
    while True:
        out.append(
            {"proc": proc, "peer": peer, "direction": direction, "post": t, "wait": w}
        )
        if every is None:
            break
        t += every
        if w is not None:
            w += every
        if t > until + 1e-9:
            break
    return out


def _build_ops(raw_ops: list[dict], nodes: int, mpi_mode: OpMode) -> list[list[CommOp]]:
    per_proc: list[list[dict]] = [[] for _ in range(nodes)]
    for order, spec in enumerate(raw_ops):
        if not (0 <= spec["proc"] < nodes):
            raise ValidationError(f"op process {spec['proc']} outside 0..{nodes - 1}")
        spec["order"] = order
        per_proc[spec["proc"]].append(spec)
    processes: list[list[CommOp]] = []
    for proc, specs in enumerate(per_proc):
        specs.sort(key=lambda s: (s["post"], s["order"]))
        ops = []
        for idx, s in enumerate(specs):
            wait = s["wait"]
            mode = OpMode.NONBLOCKING if wait is not None else mpi_mode
            if wait is None:
                # a non-blocking op without an explicit wait tests right away
                wait = s["post"]
            ops.append(
                CommOp(
                    index=idx,
                    proc=proc,
                    peer=s["peer"],
                    direction=s["direction"],
                    mode=mode,
                    post_time_offset=s["post"],
                    wait_offset=wait,
                )
            )
        processes.append(ops)
    return processes


def _parse_sections(text: str) -> dict[str, list[tuple[int, str, str]]]:
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current: str | None = None
    seen_keys: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
            if current in sections:
                raise ParseError(f"duplicate section [{current}]", lineno)
            sections[current] = []
            continue
        if current is None:
            raise ParseError("content before any section header", lineno)
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        key = key.lower()
        if key not in _REPEATABLE:
            if (current, key) in seen_keys:
                raise ParseError(f"duplicate key {key!r} in [{current}]", lineno)
            seen_keys.add((current, key))
        sections[current].append((lineno, key, value))
    return sections


class _Section:
    def __init__(self, entries: list[tuple[int, str, str]], name: str):
        self.name = name
        self.entries = entries
        self._single: dict[str, tuple[int, str]] = {}
        for lineno, key, value in entries:
            if key not in _REPEATABLE:
                self._single[key] = (lineno, value)

    def get(self, key: str, default: str | None = None) -> tuple[int, str]:
        if key in self._single:
            return self._single[key]
        if default is not None:
            return (0, default)
        raise ParseError(f"missing key {key!r} in [{self.name}]")

    def repeated(self, key: str) -> list[tuple[int, str]]:
        return [(lineno, value) for lineno, k, value in self.entries if k == key]


def _parse_profile(sec: _Section, t_ckpt: float) -> SystemProfile:
    freqs = []
    for lineno, value in sec.repeated("freq"):
        fields = [f.strip() for f in value.split(",")]
        if len(fields) not in (5, 6):
            raise ParseError("freq needs: ghz, p_comp, beta, p_ckpt, gamma [, p_active_wait]", lineno)
        nums = [_number(f, lineno) for f in fields]
        freqs.append(
            FrequencyLevel(
                ghz=nums[0],
                p_comp=nums[1],
                beta=nums[2],
                p_ckpt=nums[3],
                gamma=nums[4],
                p_active_wait=nums[5] if len(fields) == 6 else None,
            )
        )
    if not freqs:
        raise ParseError(f"[{sec.name}] needs at least one freq row")
    freqs.sort(key=lambda f: -f.ghz)
    return SystemProfile(
        freqs=tuple(freqs),
        t_go_sleep=_number(*reversed(sec.get("t_go_sleep", "25 s"))),
        t_wakeup=_number(*reversed(sec.get("t_wakeup", "5 s"))),
        p_go_sleep=_number(*reversed(sec.get("p_go_sleep", "51 w"))),
        p_wakeup=_number(*reversed(sec.get("p_wakeup", "91 w"))),
        p_sleep=_number(*reversed(sec.get("p_sleep", "12 w"))),
        p_idle_wait=_number(*reversed(sec.get("p_idle_wait", "60 w"))),
        mu1=_number(*reversed(sec.get("mu1", "2.0"))),
        mu2=_number(*reversed(sec.get("mu2", "0.9"))),
        t_ckpt=t_ckpt,
    )


def loads_scenario(text: str, name: str = "scenario") -> Scenario:
    sections = _parse_sections(text)
    for required in ("system", "pattern", "checkpoint", "failure", "run"):
        if required not in sections:
            raise ParseError(f"missing section [{required}]")

    pat_sec = _Section(sections["pattern"], "pattern")
    ck_sec = _Section(sections["checkpoint"], "checkpoint")
    fail_sec = _Section(sections["failure"], "failure")
    run_sec = _Section(sections["run"], "run")
    sys_sec = _Section(sections["system"], "system")

    nodes = int(_number(*reversed(pat_sec.get("nodes"))))
    mpi_mode = OpMode(pat_sec.get("mpi_mode", "blocking")[1].strip().lower())
    raw_ops: list[dict] = []
    for lineno, value in pat_sec.repeated("op"):
        raw_ops.extend(_parse_op_line(value, lineno))
    try:
        processes = _build_ops(raw_ops, nodes, mpi_mode)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    pattern = CommPattern(
        processes=processes,
        interval=_number(*reversed(pat_sec.get("interval", "0 s"))),
        buffered=_boolean(*reversed(pat_sec.get("buffered", "false"))),
        wait_mode=WaitMode(pat_sec.get("wait_mode", "active")[1].strip().lower()),
        message_size=int(_number(*reversed(pat_sec.get("message_size", "0")))),
        repetition=_number(*reversed(pat_sec.get("repetition", "0 s"))),
    )

    offsets: dict[int, float] = {}
    for lineno, value in ck_sec.repeated("offset"):
        if ":" in value:
            proc_text, time_text = value.split(":", 1)
            try:
                proc = int(proc_text)
            except ValueError:
                raise ParseError(f"bad offset process {proc_text!r}", lineno) from None
            offsets[proc] = _number(time_text, lineno)
        else:
            broadcast = _number(value, lineno)
            offsets.update({p: broadcast for p in range(nodes)})
    try:
        ckpt = CheckpointPolicy(
            interval=_number(*reversed(ck_sec.get("interval"))),
            duration=_number(*reversed(ck_sec.get("duration"))),
            anticipation_enabled=_boolean(*reversed(ck_sec.get("anticipation", "off"))),
            anticipation_fraction=_number(*reversed(ck_sec.get("alpha", "0.5"))),
            phase_offsets=offsets,
        )
        failure = FailureSpec(
            node=int(_number(*reversed(fail_sec.get("node")))),
            time=_number(*reversed(fail_sec.get("time"))),
            restart_duration=_number(*reversed(fail_sec.get("restart"))),
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    profile = _parse_profile(sys_sec, t_ckpt=ckpt.duration)

    depth_line, depth_text = run_sec.get("depth", "auto")
    if depth_text.strip().lower() == "auto":
        depth = DepthConfig(pattern_depth(pattern)) if any(pattern.processes) else DepthConfig(1)
    else:
        try:
            depth = DepthConfig(int(_number(depth_text, depth_line)))
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc

    scenario = Scenario(
        name=name,
        nodes=nodes,
        profile=profile,
        pattern=pattern,
        ckpt=ckpt,
        failure=failure,
        depth=depth,
        horizon=_number(*reversed(run_sec.get("horizon"))),
        strategies_enabled=_boolean(*reversed(run_sec.get("strategies", "on"))),
    )
    scenario.validate()
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return loads_scenario(path.read_text(), name=path.stem)


def dump_scenario(s: Scenario) -> str:
    """Canonical text form; loads back to an equal scenario."""
    lines = ["[system]"]
    for f in s.profile.freqs:
        row = f"freq = {f.ghz} ghz, {f.p_comp} w, {f.beta}, {f.p_ckpt} w, {f.gamma}"
        if f.p_active_wait is not None:
            row += f", {f.p_active_wait} w"
        lines.append(row)
    p = s.profile
    lines += [
        f"t_go_sleep = {p.t_go_sleep} s",
        f"t_wakeup = {p.t_wakeup} s",
        f"p_go_sleep = {p.p_go_sleep} w",
        f"p_wakeup = {p.p_wakeup} w",
        f"p_sleep = {p.p_sleep} w",
        f"p_idle_wait = {p.p_idle_wait} w",
        f"mu1 = {p.mu1}",
        f"mu2 = {p.mu2}",
        "",
        "[pattern]",
        f"nodes = {s.nodes}",
        f"wait_mode = {s.pattern.wait_mode.value}",
        "mpi_mode = blocking",
        f"buffered = {'on' if s.pattern.buffered else 'off'}",
        f"message_size = {s.pattern.message_size}",
        f"interval = {s.pattern.interval} s",
        f"repetition = {s.pattern.repetition} s",
    ]
    for ops in s.pattern.processes:
        for op in ops:
            line = f"op = {op.proc} {op.direction.value} {op.peer} @ {op.post_time_offset} s"
            if op.mode is OpMode.NONBLOCKING:
                line += f" wait @ {op.wait_offset} s"
            lines.append(line)
    lines += [
        "",
        "[checkpoint]",
        f"interval = {s.ckpt.interval} s",
        f"duration = {s.ckpt.duration} s",
        f"anticipation = {'on' if s.ckpt.anticipation_enabled else 'off'}",
        f"alpha = {s.ckpt.anticipation_fraction}",
    ]
    for proc in sorted(s.ckpt.phase_offsets):
        lines.append(f"offset = {proc}: {s.ckpt.phase_offsets[proc]} s")
    lines += [
        "",
        "[failure]",
        f"node = {s.failure.node}",
        f"time = {s.failure.time} s",
        f"restart = {s.failure.restart_duration} s",
        "",
        "[run]",
        f"horizon = {s.horizon} s",
        f"depth = {s.depth.depth}",
        f"strategies = {'on' if s.strategies_enabled else 'off'}",
        "",
    ]
    return "\n".join(lines)
