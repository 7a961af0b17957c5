"""Uncoordinated time-triggered checkpointing, anticipated checkpoints, and
failure/restart timing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True)
class CheckpointPolicy:
    """Time-triggered checkpoints with per-process start offsets.

    A trigger fires only while the process is computing; triggers that land
    during a wait, a checkpoint, or recovery are skipped. When anticipation
    is enabled, a process that is about to block takes a checkpoint first,
    provided at least ``anticipation_fraction`` of an interval has elapsed
    since its last one.
    """

    interval: float
    duration: float
    anticipation_enabled: bool = False
    anticipation_fraction: float = 0.5
    phase_offsets: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0 < self.duration < self.interval):
            raise ValueError("need 0 < duration < interval")
        if not (0 < self.anticipation_fraction <= 1):
            raise ValueError("anticipation fraction must be in (0, 1]")

    def offset(self, proc: int) -> float:
        return self.phase_offsets.get(proc, 0.0)

    def triggers(self, proc: int, horizon: float) -> Iterator[float]:
        """The times ``proc``'s timer fires up to ``horizon``: its offset and
        every interval after it, as a running sum; only times after 0 count.
        :meth:`trigger_steps` bounds the work."""
        t = self.offset(proc)
        while t <= horizon:
            if t > 0:
                yield t
            t += self.interval

    def trigger_steps(self, proc: int, horizon: float) -> float:
        """How many sums :meth:`triggers` takes for ``proc``, up to rounding;
        raises ValueError where adding the interval may not move the sum."""
        start = self.offset(proc)
        if start > horizon:
            return 0.0
        # half an ulp of the largest sum is the smallest step that moves it
        if self.interval <= math.ulp(max(abs(start), abs(horizon))) / 2:
            raise ValueError(
                f"checkpoint interval {self.interval:g} s is too small to advance"
                f" process {proc}'s timer from {start:g} s"
            )
        return (horizon - start) / self.interval + 1


@dataclass(frozen=True)
class FailureSpec:
    node: int
    time: float
    restart_duration: float

    def __post_init__(self) -> None:
        if self.time <= 0:
            raise ValueError("failure time must be positive")
        if self.restart_duration < 0:
            raise ValueError("restart duration must be non-negative")


def should_anticipate(policy: CheckpointPolicy, block_time: float, last_ckpt: float) -> bool:
    """Whether a process blocking now should checkpoint first."""
    if block_time < last_ckpt:
        raise ValueError("block before last checkpoint")
    if not policy.anticipation_enabled:
        return False
    return (block_time - last_ckpt) >= policy.anticipation_fraction * policy.interval
