"""Uncoordinated time-triggered checkpointing, anticipated checkpoints, and
failure/restart timing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


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

    def first_trigger(self, proc: int) -> float:
        """When ``proc``'s timer first fires: the first sum of its offset and
        whole intervals, added one at a time, that is after 0."""
        t = self.offset(proc)
        while t <= 0:
            t += self.interval
        return t

    def next_trigger(self, t: float) -> float:
        """When a timer that fired at ``t`` fires next."""
        return t + self.interval

    def trigger_steps(self, proc: int, horizon: float) -> float:
        """How many sums ``proc``'s timer takes up to ``horizon``, up to
        rounding: from its offset, those of :meth:`first_trigger` and then of
        each :meth:`next_trigger`, the rule the simulation's timer runs;
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
