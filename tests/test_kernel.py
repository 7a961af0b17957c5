import random

import pytest

from ftsim.kernel import EventQueue, PastTime
from ftsim.simulate import _Messages

# an event's kind is whatever its caller passes: the queue never reads it
MILESTONE, COMM_COMPLETE, CKPT_BEGIN = object(), object(), object()


def test_schedule_keeps_clock():
    q = EventQueue()
    q.schedule(5.0, CKPT_BEGIN, 0)
    assert len(q) == 1
    assert q.clock == 0.0


def test_tie_break_by_insertion_order():
    q = EventQueue()
    first = q.schedule(5.0, MILESTONE, 1)
    second = q.schedule(5.0, MILESTONE, 2)
    assert first != second
    assert q.advance().node == 1
    assert q.advance().node == 2


class Incomparable:
    def __eq__(self, other):
        raise AssertionError("payloads compared")

    __lt__ = __gt__ = __le__ = __ge__ = __ne__ = __eq__
    __hash__ = object.__hash__


def test_tie_break_never_compares_payloads():
    q = EventQueue()
    payloads = [{"a": 1}, _Messages.unsent(1), Incomparable()] * 2
    ids = [q.schedule(5.0, COMM_COMPLETE, 0, payload=p) for p in payloads]
    popped = [q.advance() for _ in payloads]
    assert [ev.seq for ev in popped] == ids
    assert all(ev.payload is p for ev, p in zip(popped, payloads))


def test_event_fields():
    q = EventQueue()
    payload = {"op": 3}
    eid = q.schedule(2.5, MILESTONE, 7, payload=payload)
    ev = q.advance()
    assert ev.time == 2.5
    assert ev.seq == eid
    assert ev.kind is MILESTONE
    assert ev.node == 7
    assert ev.payload is payload
    assert q.schedule(3.0, CKPT_BEGIN, 1) != eid
    assert q.advance().payload is None


def test_past_time_rejected():
    q = EventQueue()
    q.schedule(10.0, CKPT_BEGIN, 0)
    q.advance()
    assert q.clock == 10.0
    with pytest.raises(PastTime):
        q.schedule(3.0, CKPT_BEGIN, 0)


def test_min_extraction_sets_clock():
    q = EventQueue()
    q.schedule(2.0, CKPT_BEGIN, 0)
    q.schedule(1.0, CKPT_BEGIN, 1)
    ev = q.advance()
    assert ev.time == 1.0 and ev.node == 1
    assert q.clock == 1.0


def test_advance_empty_returns_none():
    q = EventQueue()
    assert q.advance() is None
    q.schedule(1.0, CKPT_BEGIN, 0)
    q.advance()
    assert q.advance() is None and q.clock == 1.0


def test_cancel_semantics():
    q = EventQueue()
    eid = q.schedule(4.0, CKPT_BEGIN, 0)
    assert q.cancel(eid) is True
    assert len(q) == 0
    assert q.cancel(eid) is False
    fired = q.schedule(1.0, CKPT_BEGIN, 0)
    q.advance()
    assert q.cancel(fired) is False


def test_deterministic_pop_sequence_and_conservation():
    rng = random.Random(7)
    times = [round(rng.uniform(0, 50), 3) for _ in range(300)]

    def run():
        q = EventQueue()
        ids = [q.schedule(t, CKPT_BEGIN, i) for i, t in enumerate(times)]
        cancelled = set()
        for i in ids[::7]:
            if q.cancel(i):
                cancelled.add(i)
        seq = []
        popped = set()
        last = -1.0
        while len(q):
            ev = q.advance()
            assert ev.time >= last
            last = ev.time
            seq.append((ev.time, ev.seq))
            popped.add(ev.seq)
        assert popped | cancelled == set(ids)
        assert not (popped & cancelled)
        return seq

    assert run() == run()


def test_advance_stops_before_a_key():
    q = EventQueue()
    first = q.schedule(5.0, CKPT_BEGIN, 0)
    second = q.schedule(5.0, CKPT_BEGIN, 1)
    q.schedule(4.0, CKPT_BEGIN, 2)
    q.cancel(q.schedule(4.5, CKPT_BEGIN, 3))
    assert q.advance((5.0, 0, second)).node == 2
    assert q.advance((5.0, 0, second)).seq == first
    assert q.advance((5.0, 0, second)) is None  # an equal key is not before it
    assert (len(q), q.clock) == (1, 5.0)
    assert q.advance((5.0, 0, second + 0.5)).seq == second


def test_a_lower_band_goes_first_at_an_instant():
    q = EventQueue()
    q.schedule(5.0, MILESTONE, 0)
    q.schedule(5.0, MILESTONE, 1, band=-1)
    q.schedule(5.0, CKPT_BEGIN, 2, band=-3)
    q.schedule(5.0, MILESTONE, 3, band=-1)
    q.schedule(5.0, CKPT_BEGIN, 4, band=-4)
    q.schedule(4.0, MILESTONE, 5, band=1)
    popped = [q.advance() for _ in range(6)]
    assert [(ev.node, ev.band) for ev in popped] == [
        (5, 1), (4, -4), (2, -3), (1, -1), (3, -1), (0, 0),
    ]


def test_an_event_the_queue_numbered_is_cancellable_in_any_band():
    q = EventQueue()
    early = q.schedule(5.0, MILESTONE, 0, band=-1)
    q.schedule(5.0, MILESTONE, 1)
    assert q.cancel(early) is True
    assert q.advance().node == 1
    assert len(q) == 0


def test_copy_runs_on_independently():
    q = EventQueue()
    q.schedule(1.0, CKPT_BEGIN, 0)
    q.schedule(2.0, CKPT_BEGIN, 1)
    q.schedule(2.0, CKPT_BEGIN, 2, band=-1)
    q.advance()
    twin = q.copy()
    assert twin == q and twin._heap is not q._heap
    assert [q.advance().node for _ in range(2)] == [2, 1]
    twin.schedule(1.5, MILESTONE, 0, band=-2)
    q.schedule(3.0, MILESTONE, 3, band=-2)  # numbered alike in each queue
    assert twin.clock == 1.0 and len(twin) == 3
    assert [twin.advance().node for _ in range(3)] == [0, 2, 1]  # the copy keeps node 2's event
    assert len(q) == 1 and q.clock == 2.0


def test_pending_lists_the_events_in_key_order():
    q = EventQueue()
    q.schedule(2.0, MILESTONE, 0)
    cancelled = q.schedule(1.0, MILESTONE, 1)
    q.schedule(2.0, CKPT_BEGIN, 2, band=-1)
    q.schedule(2.0, MILESTONE, 3)
    q.schedule(0.5, MILESTONE, 4)
    q.cancel(cancelled)
    q.advance()
    assert [(ev.time, ev.band, ev.node) for ev in q.pending()] == [
        (2.0, -1, 2), (2.0, 0, 0), (2.0, 0, 3),
    ]
    assert len(q) == 3  # listing them pops nothing
