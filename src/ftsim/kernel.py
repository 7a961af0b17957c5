"""Minimal deterministic discrete-event kernel.

A virtual clock plus a priority queue of timestamped events, ordered by
(time, band, seq). A band is the caller's class of event: at one instant a
lower band goes first, and an event scheduled without one is in band 0. The
queue numbers events 0, 1, 2, … as they are scheduled, so ties within a
band are broken by insertion order, which makes every run of the same
schedule reproducible. A caller may instead give an event a negative
``seq`` of its own: it goes before every same-time event of its band that
the queue numbered, and negative numbers order by value. Such a number
names one pending event at a time, and its event cannot be cancelled. A
queue can be copied, and a copy run on from where the original stands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import inf
from typing import Any, NamedTuple


class EventKind(enum.Enum):
    MILESTONE = "MILESTONE"
    COMM_COMPLETE = "COMM_COMPLETE"
    CKPT_BEGIN = "CKPT_BEGIN"
    CKPT_END = "CKPT_END"
    FAILURE = "FAILURE"
    RESTART_END = "RESTART_END"
    REEXEC_END = "REEXEC_END"
    WAKEUP_END = "WAKEUP_END"

    # members are singletons: hash them in C, not through Enum's Python __hash__
    __hash__ = object.__hash__


class PastTime(ValueError):
    """Raised when an event is scheduled before the current clock."""


class EmptyQueue(LookupError):
    """Raised when advancing an empty queue."""


class SimEvent(NamedTuple):
    """An event, and also its heap entry: tuples order by (time, band, seq),
    and seq is unique, so kinds and payloads are never compared."""

    time: float
    band: int
    seq: int
    kind: EventKind
    node: int
    payload: Any = None


_new_event = tuple.__new__  # skips the NamedTuple's generated Python __new__


_ALWAYS = (inf, inf)  # a key no event reaches


@dataclass
class EventQueue:
    """Time-ordered event queue; (time, band, seq) is a strict total order."""

    clock: float = 0.0
    _heap: list[SimEvent] = field(default_factory=list)
    _counter: int = 0
    _pending: set[int] = field(default_factory=set)

    def schedule(
        self,
        time: float,
        kind: EventKind,
        node: int,
        payload: Any = None,
        seq: int | None = None,
        band: int = 0,
    ) -> int:
        """Queue an event in ``band`` and return its sequence number: the
        next one the queue hands out, or the caller's ``seq``, which must be
        negative and not name a pending event."""
        if time < self.clock:
            raise PastTime(f"cannot schedule at t={time} before clock {self.clock}")
        if seq is None:
            seq = self._counter
            self._counter = seq + 1
        elif seq >= 0 or seq in self._pending:
            raise ValueError(f"sequence number {seq} is not a free negative number")
        heappush(self._heap, _new_event(SimEvent, (time, band, seq, kind, node, payload)))
        self._pending.add(seq)
        return seq

    def advance(self, before: tuple[float, ...] = _ALWAYS) -> SimEvent | None:
        """Pop the first pending event and move the clock to it. Return None
        instead, and leave the queue as it is, when that event's (time, band,
        seq) is not before ``before``."""
        heap, pending = self._heap, self._pending
        while heap:
            event = heap[0]
            seq = event[2]
            if seq not in pending:  # a cancelled event is no longer pending
                heappop(heap)
                continue
            if event >= before:  # an event with ``before``'s key is not before it
                return None
            heappop(heap)
            pending.discard(seq)
            self.clock = event[0]
            return event
        raise EmptyQueue("no pending events")

    def cancel(self, event_id: int) -> bool:
        if event_id < 0:
            # its number may be given again while the cancelled entry is
            # still in the heap, which would bring that entry back
            raise ValueError(f"event {event_id} was numbered by its caller")
        if event_id in self._pending:
            self._pending.discard(event_id)
            return True
        return False

    def copy(self) -> EventQueue:
        """A queue that runs on independently from this one's state. The
        events' payloads are shared, not copied."""
        return EventQueue(self.clock, list(self._heap), self._counter, set(self._pending))

    def __len__(self) -> int:
        return len(self._pending)
