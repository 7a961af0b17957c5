from dataclasses import replace
from pathlib import Path

import pytest

from ftsim.cascade import DepthConfig, estimate_block_times
from ftsim.fault import CheckpointPolicy, FailureSpec
from ftsim.pattern import CommOp, CommPattern, Direction, OpMode, UnmatchedOp
from ftsim.scenario import Scenario, ValidationError, load_scenario
from ftsim.simulate import _Engine, _programs

from scengen import random_scenario
from test_energy import PROFILE

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"


def op(index, proc, peer, direction, post, mode=OpMode.BLOCKING, wait=None):
    return CommOp(
        index=index,
        proc=proc,
        peer=peer,
        direction=direction,
        mode=mode,
        post_time_offset=post,
        wait_offset=post if wait is None else wait,
    )


def reference_matching_op(pattern, op):
    """FIFO matching by list scans: the k-th op of one direction on a
    channel pairs with the k-th op of the other direction. O(ops) per call;
    kept as an oracle for the channel index."""
    mine = [o for o in pattern.processes[op.proc] if o.peer == op.peer and o.direction == op.direction]
    k = mine.index(op)
    want = Direction.RECV if op.direction is Direction.SEND else Direction.SEND
    theirs = [o for o in pattern.processes[op.peer] if o.peer == op.proc and o.direction == want]
    if k >= len(theirs):
        raise UnmatchedOp(
            f"op {op.index} of process {op.proc} ({op.direction.value} peer {op.peer}) has no match"
        )
    return theirs[k]


def matched(match, *args):
    try:
        return match(*args)
    except UnmatchedOp as exc:
        return ("unmatched", str(exc))


def mixed_mode_pattern():
    """Three processes; each channel mixes blocking and non-blocking ops and
    interleaves both directions and several peers."""
    nb = OpMode.NONBLOCKING
    p0 = [
        op(0, 0, 1, Direction.SEND, 10.0),
        op(1, 0, 2, Direction.SEND, 11.0, nb, 15.0),
        op(2, 0, 1, Direction.RECV, 20.0, nb, 40.0),
        op(3, 0, 1, Direction.SEND, 30.0, nb, 31.0),
        op(4, 0, 2, Direction.RECV, 50.0),
    ]
    p1 = [
        op(0, 1, 0, Direction.RECV, 5.0, nb, 12.0),
        op(1, 1, 0, Direction.SEND, 25.0),
        op(2, 1, 2, Direction.SEND, 26.0, nb, 60.0),
        op(3, 1, 0, Direction.RECV, 35.0),
    ]
    p2 = [
        op(0, 2, 0, Direction.RECV, 11.0),
        op(1, 2, 1, Direction.RECV, 27.0, nb, 27.5),
        op(2, 2, 0, Direction.SEND, 45.0, nb, 55.0),
    ]
    return CommPattern(processes=[p0, p1, p2])


def unmatched_pattern():
    """Process 0 sends three messages to 1, which receives two; process 2
    receives from 1, which never sends to it."""
    p0 = [op(i, 0, 1, Direction.SEND, 10.0 * (i + 1)) for i in range(3)]
    p1 = [op(0, 1, 0, Direction.RECV, 10.0), op(1, 1, 0, Direction.RECV, 20.0)]
    p2 = [op(0, 2, 1, Direction.RECV, 5.0)]
    return CommPattern(processes=[p0, p1, p2])


def patterns_under_test():
    for path in sorted(FIXTURES.glob("*.scn")):
        yield path.stem, load_scenario(path).pattern
    for seed in range(20):
        yield f"random-{seed}", random_scenario(seed).pattern
    yield "mixed", mixed_mode_pattern()
    yield "unmatched", unmatched_pattern()


def test_matching_op_agrees_with_reference():
    for name, pattern in patterns_under_test():
        for ops in pattern.processes:
            for o in ops:
                got = matched(pattern.matching_op, o)
                assert got == matched(reference_matching_op, pattern, o), (name, o)


def test_validate_reports_reference_error():
    pattern = unmatched_pattern()
    first = next(
        matched(reference_matching_op, pattern, o)
        for ops in pattern.processes
        for o in ops
        if isinstance(matched(reference_matching_op, pattern, o), tuple)
    )
    with pytest.raises(UnmatchedOp) as caught:
        pattern.validate()
    assert str(caught.value) == first[1]
    assert first[1] == "op 2 of process 0 (send peer 1) has no match"


def test_matching_op_rejects_foreign_op():
    pattern = mixed_mode_pattern()
    with pytest.raises(ValueError):
        pattern.matching_op(op(9, 0, 1, Direction.SEND, 99.0))


def test_ops_with_and_peers_follow_program_order():
    pattern = mixed_mode_pattern()
    assert pattern.peers(0) == [1, 2]
    assert [o.index for o in pattern.ops_with(0, 1)] == [0, 2, 3]
    assert pattern.ops_with(1, 1) == []
    assert pattern.peers(2) == [0, 1]


def test_replace_rebuilds_the_index():
    pattern = unmatched_pattern()
    p1 = pattern.processes[1] + [op(2, 1, 0, Direction.RECV, 30.0)]
    fixed = replace(pattern, processes=[pattern.processes[0], p1, []])
    fixed.validate()
    assert fixed.matching_op(fixed.processes[0][2]) is p1[2]
    with pytest.raises(UnmatchedOp):
        pattern.matching_op(pattern.processes[0][2])


def test_scenario_validation_wraps_the_unmatched_error():
    pattern = unmatched_pattern()
    s = Scenario(
        name="unmatched",
        nodes=3,
        profile=PROFILE,
        pattern=pattern,
        ckpt=CheckpointPolicy(interval=1000.0, duration=10.0),
        failure=FailureSpec(node=0, time=50.0, restart_duration=5.0),
        depth=DepthConfig(1),
        horizon=500.0,
    )
    with pytest.raises(ValidationError, match="op 2 of process 0 \\(send peer 1\\) has no match"):
        s.validate()


def exchange_times(send_at, recv_at, buffered):
    """When the sender and the receiver of one blocking message may go on,
    from a failure-free pass of the engine."""
    pattern = CommPattern(
        processes=[[op(0, 0, 1, Direction.SEND, send_at)], [op(0, 1, 0, Direction.RECV, recv_at)]],
        buffered=buffered,
    )
    s = Scenario(
        name="exchange",
        nodes=2,
        profile=PROFILE,
        pattern=pattern,
        ckpt=CheckpointPolicy(interval=1000.0, duration=10.0, phase_offsets={0: 900.0, 1: 900.0}),
        failure=FailureSpec(node=0, time=500.0, restart_duration=5.0),
        depth=DepthConfig(1),
        horizon=800.0,
    )
    s.validate()
    engine = _Engine(s, _programs(pattern), inject_failure=False)
    engine.run()
    return engine.completions[(0, 0, False)], engine.completions[(1, 0, False)]


def test_blocking_unbuffered_synchronizes():
    assert exchange_times(10.0, 30.0, buffered=False) == (30.0, 30.0)


def test_blocking_buffered_sender_returns_early():
    assert exchange_times(10.0, 30.0, buffered=True) == (10.0, 30.0)


def test_synchronized_case():
    for buffered in (False, True):
        assert exchange_times(20.0, 20.0, buffered=buffered) == (20.0, 20.0)


def test_unmatched_op_raises():
    lonely = CommPattern(processes=[[op(0, 0, 1, Direction.SEND, 5.0)], []])
    with pytest.raises(UnmatchedOp, match="op 0 of process 0 \\(send peer 1\\) has no match"):
        lonely.matching_op(lonely.processes[0][0])


def test_buffering_dominance():
    for send_at, recv_at in [(10.0, 30.0), (30.0, 10.0), (5.0, 5.0)]:
        buffered_done = exchange_times(send_at, recv_at, buffered=True)[0]
        unbuffered_done = exchange_times(send_at, recv_at, buffered=False)[0]
        assert buffered_done <= unbuffered_done


def repeating_pattern():
    # P1 sends to P2 every 60 s starting at 60.
    sends = [op(i, 1, 2, Direction.SEND, 60.0 * (i + 1)) for i in range(10)]
    recvs = [op(i, 2, 1, Direction.RECV, 60.0 * (i + 1)) for i in range(10)]
    return CommPattern(processes=[[], sends, recvs], repetition=60.0)


def next_comm(pattern, child, parent, after):
    """When ``child`` next blocks on ``parent`` if the parent fails at
    ``after``, per the block-time analysis; infinity when it never does."""
    estimates = estimate_block_times(pattern, failed=parent, fail_time=after, depth=DepthConfig(1))
    return next((e.block_time for e in estimates if e.process == child), float("inf"))


def test_next_comm_finds_following_op():
    pattern = repeating_pattern()
    assert next_comm(pattern, 2, 1, 130.0) == 180.0


def test_next_comm_exhausted_is_infinite():
    pattern = repeating_pattern()
    assert next_comm(pattern, 2, 1, 600.0) == float("inf")


def test_next_comm_is_strict():
    sends = [op(0, 1, 2, Direction.SEND, 0.0), op(1, 1, 2, Direction.SEND, 45.0)]
    recvs = [op(0, 2, 1, Direction.RECV, 0.0), op(1, 2, 1, Direction.RECV, 45.0)]
    pattern = CommPattern(processes=[[], sends, recvs])
    assert next_comm(pattern, 2, 1, 0.0) == 45.0


def test_fifo_validation_rejects_disorder():
    bad = CommPattern(
        processes=[
            [op(0, 0, 1, Direction.SEND, 10.0), op(1, 0, 1, Direction.SEND, 10.0)],
            [op(0, 1, 0, Direction.RECV, 10.0), op(1, 1, 0, Direction.RECV, 20.0)],
        ]
    )
    with pytest.raises(ValueError):
        bad.validate()
