"""Minimal deterministic discrete-event kernel.

A virtual clock plus a priority queue of timestamped events. Ties are broken
by insertion order, which makes every run of the same schedule reproducible.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Any


class EventKind(enum.Enum):
    POST_SEND = "POST_SEND"
    POST_RECV = "POST_RECV"
    WAIT_ENTER = "WAIT_ENTER"
    COMM_COMPLETE = "COMM_COMPLETE"
    CKPT_BEGIN = "CKPT_BEGIN"
    CKPT_END = "CKPT_END"
    FAILURE = "FAILURE"
    RESTART_END = "RESTART_END"
    REEXEC_END = "REEXEC_END"
    WAKEUP_END = "WAKEUP_END"


class PastTime(ValueError):
    """Raised when an event is scheduled before the current clock."""


class EmptyQueue(LookupError):
    """Raised when advancing an empty queue."""


@dataclass(frozen=True)
class SimEvent:
    time: float
    seq: int
    kind: EventKind
    node: int
    payload: Any = None


@dataclass
class EventQueue:
    """Time-ordered event queue; (time, seq) is a strict total order."""

    clock: float = 0.0
    _heap: list[tuple[float, int, SimEvent]] = field(default_factory=list)
    _counter: int = 0
    _cancelled: set[int] = field(default_factory=set)
    _pending: set[int] = field(default_factory=set)

    def schedule(self, time: float, kind: EventKind, node: int, payload: Any = None) -> int:
        if time < self.clock:
            raise PastTime(f"cannot schedule at t={time} before clock {self.clock}")
        seq = self._counter
        self._counter += 1
        event = SimEvent(time=time, seq=seq, kind=kind, node=node, payload=payload)
        heapq.heappush(self._heap, (time, seq, event))
        self._pending.add(seq)
        return seq

    def advance(self) -> SimEvent:
        while self._heap:
            time, seq, event = heapq.heappop(self._heap)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self._pending.discard(seq)
            self.clock = time
            return event
        raise EmptyQueue("no pending events")

    def cancel(self, event_id: int) -> bool:
        if event_id in self._pending:
            self._pending.discard(event_id)
            self._cancelled.add(event_id)
            return True
        return False

    def __len__(self) -> int:
        return len(self._pending)

    def peek_time(self) -> float | None:
        while self._heap and self._heap[0][1] in self._cancelled:
            _, seq, _ = heapq.heappop(self._heap)
            self._cancelled.discard(seq)
        if not self._heap:
            return None
        return self._heap[0][0]
