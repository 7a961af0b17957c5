import random

import pytest

from ftsim.kernel import EmptyQueue, EventKind, EventQueue, PastTime


def test_schedule_keeps_clock():
    q = EventQueue()
    q.schedule(5.0, EventKind.CKPT_BEGIN, 0)
    assert len(q) == 1
    assert q.clock == 0.0


def test_tie_break_by_insertion_order():
    q = EventQueue()
    first = q.schedule(5.0, EventKind.POST_SEND, 1)
    second = q.schedule(5.0, EventKind.POST_RECV, 2)
    assert first != second
    assert q.advance().node == 1
    assert q.advance().node == 2


def test_past_time_rejected():
    q = EventQueue()
    q.schedule(10.0, EventKind.CKPT_BEGIN, 0)
    q.advance()
    assert q.clock == 10.0
    with pytest.raises(PastTime):
        q.schedule(3.0, EventKind.CKPT_BEGIN, 0)


def test_min_extraction_sets_clock():
    q = EventQueue()
    q.schedule(2.0, EventKind.CKPT_BEGIN, 0)
    q.schedule(1.0, EventKind.CKPT_BEGIN, 1)
    ev = q.advance()
    assert ev.time == 1.0 and ev.node == 1
    assert q.clock == 1.0


def test_advance_empty_raises():
    with pytest.raises(EmptyQueue):
        EventQueue().advance()


def test_cancel_semantics():
    q = EventQueue()
    eid = q.schedule(4.0, EventKind.CKPT_BEGIN, 0)
    assert q.cancel(eid) is True
    assert len(q) == 0
    assert q.cancel(eid) is False
    fired = q.schedule(1.0, EventKind.CKPT_BEGIN, 0)
    q.advance()
    assert q.cancel(fired) is False


def test_deterministic_pop_sequence_and_conservation():
    rng = random.Random(7)
    times = [round(rng.uniform(0, 50), 3) for _ in range(300)]

    def run():
        q = EventQueue()
        ids = [q.schedule(t, EventKind.CKPT_BEGIN, i) for i, t in enumerate(times)]
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
