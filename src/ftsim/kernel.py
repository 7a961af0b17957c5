"""Minimal deterministic discrete-event kernel.

A virtual clock plus a priority queue of timestamped events, ordered by
(time, band, seq). A band is the caller's class of event: at one instant a
lower band goes first, and an event scheduled without one is in band 0. The
queue numbers events 0, 1, 2, … as they are scheduled, so ties within a
band are broken by insertion order, which makes every run of the same
schedule reproducible. An event's kind is whatever the caller passes; the
kernel never reads it. A queue can be copied, and a copy run on from where
the original stands; its pending events can be listed in key order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import inf
from typing import Any, NamedTuple


class PastTime(ValueError):
    """Raised when an event is scheduled before the current clock."""


class SimEvent(NamedTuple):
    """An event, and also its heap entry: tuples order by (time, band, seq),
    and seq is unique, so kinds and payloads are never compared."""

    time: float
    band: int
    seq: int
    kind: Any
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
        self, time: float, kind: Any, node: int, payload: Any = None, band: int = 0
    ) -> int:
        """Queue an event in ``band`` and return its sequence number."""
        if time < self.clock:
            raise PastTime(f"cannot schedule at t={time} before clock {self.clock}")
        seq = self._counter
        self._counter = seq + 1
        heappush(self._heap, _new_event(SimEvent, (time, band, seq, kind, node, payload)))
        self._pending.add(seq)
        return seq

    def advance(self, before: tuple[float, ...] = _ALWAYS) -> SimEvent | None:
        """Pop the first pending event and move the clock to it. Return None
        instead, and leave the queue as it is, when no event is pending or
        the first one's (time, band, seq) is not before ``before``."""
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
        return None

    def cancel(self, event_id: int) -> bool:
        if event_id in self._pending:
            self._pending.discard(event_id)
            return True
        return False

    def pending(self) -> list[SimEvent]:
        """The pending events, in (time, band, seq) order."""
        pending = self._pending
        return sorted(event for event in self._heap if event[2] in pending)

    def copy(self) -> EventQueue:
        """A queue that runs on independently from this one's state. The
        events' payloads are shared, not copied."""
        return EventQueue(self.clock, list(self._heap), self._counter, set(self._pending))

    def __len__(self) -> int:
        return len(self._pending)
