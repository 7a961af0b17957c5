import random
from dataclasses import replace
from pathlib import Path

import pytest

from ftsim.cascade import DepthConfig, estimate_block_times
from ftsim.fault import CheckpointPolicy, FailureSpec
from ftsim.pattern import CommPattern, UnmatchedOp
from ftsim.scenario import Scenario, ValidationError, load_scenario, loads_scenario
from ftsim.simulate import _Engine, _programs

from oprows import op_columns, op_pattern, op_rows
from scengen import random_scenario
from test_cascade import offsets
from test_energy import PROFILE

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"


def reference_matching_op(processes, proc, index):
    """FIFO matching by list scans over the rows of ``processes``, a
    pattern's columns, built into a pattern or not: the k-th op of one
    direction on a channel pairs with the k-th op of the other direction.
    O(ops) per call; kept as an oracle for the channel index."""
    peer, direction = op_rows(processes[proc])[index][:2]
    mine = [i for i, row in enumerate(op_rows(processes[proc])) if row[:2] == (peer, direction)]
    k = mine.index(index)
    want = "recv" if direction == "send" else "send"
    theirs = [i for i, row in enumerate(op_rows(processes[peer])) if row[:2] == (proc, want)]
    if k >= len(theirs):
        raise UnmatchedOp(f"op {index} of process {proc} ({direction} peer {peer}) has no match")
    return theirs[k]


def matched(match, *args):
    try:
        return match(*args)
    except UnmatchedOp as exc:
        return ("unmatched", str(exc))


def mixed_mode_pattern():
    """Three processes; each channel mixes blocking and non-blocking ops and
    interleaves both directions and several peers."""
    p0 = [
        (1, "send", 10.0),
        (2, "send", 11.0, 15.0),
        (1, "recv", 20.0, 40.0),
        (1, "send", 30.0, 31.0),
        (2, "recv", 50.0),
    ]
    p1 = [
        (0, "recv", 5.0, 12.0),
        (0, "send", 25.0),
        (2, "send", 26.0, 60.0),
        (0, "recv", 35.0),
    ]
    p2 = [
        (0, "recv", 11.0),
        (1, "recv", 27.0, 27.5),
        (0, "send", 45.0, 55.0),
    ]
    return op_pattern([p0, p1, p2])


def unmatched_processes():
    """Columns no pattern can be built from: process 0 sends three messages
    to 1, which receives two; process 2 receives from 1, which never sends
    to it."""
    p0 = [(1, "send", 10.0 * (i + 1)) for i in range(3)]
    p1 = [(0, "recv", 10.0), (0, "recv", 20.0)]
    p2 = [(1, "recv", 5.0)]
    return [op_columns(proc, rows) for proc, rows in enumerate([p0, p1, p2])]


def patterns_under_test():
    for path in sorted(FIXTURES.glob("*.scn")):
        yield path.stem, load_scenario(path).pattern
    for seed in range(20):
        yield f"random-{seed}", random_scenario(seed).pattern
    yield "mixed", mixed_mode_pattern()


def every_op(processes):
    return [(proc, index) for proc, ops in enumerate(processes) for index in range(len(ops))]


def test_matching_op_agrees_with_reference():
    """On every op of a built pattern, which has no unmatched op."""
    for name, pattern in patterns_under_test():
        for proc, index in every_op(pattern.processes):
            got = pattern.matching_op(proc, index)
            assert got == reference_matching_op(pattern.processes, proc, index), (name, proc, index)


def without_op(processes, proc, position):
    """``processes`` less the op at ``position`` of ``proc``, the indices
    after it renumbered."""
    rows = [op_rows(ops) for ops in processes]
    del rows[proc][position]
    return [op_columns(p, ops) for p, ops in enumerate(rows)]


def first_reference_error(processes):
    """The text of the first unmatched op in (process, index) order by the
    list-scan oracle, or None."""
    for proc, index in every_op(processes):
        got = matched(reference_matching_op, processes, proc, index)
        if not isinstance(got, int):
            return got[1]
    return None


def test_validate_reports_reference_error():
    """Building a pattern checks FIFO matching from the stream counts: it
    raises exactly the oracle's first unmatched op, and builds where the
    oracle finds none. Each pattern's columns as they are and with one op
    removed at seeded positions, and columns unmatched as they are."""
    checked = raised = 0
    under_test = [(name, pattern.processes) for name, pattern in patterns_under_test()]
    for name, processes in [*under_test, ("unmatched", unmatched_processes())]:
        rng = random.Random(name)
        cases = [("as is", processes)]
        for _ in range(3):
            proc = rng.choice([p for p, ops in enumerate(processes) if len(ops)])
            position = rng.randrange(len(processes[proc]))
            cases.append((f"less op {position} of {proc}", without_op(processes, proc, position)))
        for case, variant in cases:
            want = first_reference_error(variant)
            if want is None:
                CommPattern(variant)
            else:
                with pytest.raises(UnmatchedOp) as caught:
                    CommPattern(variant)
                assert str(caught.value) == want, (name, case)
                raised += 1
            checked += 1
    assert raised > checked // 2
    assert first_reference_error(unmatched_processes()) == "op 2 of process 0 (send peer 1) has no match"


def test_ops_with_and_peers_follow_program_order():
    pattern = mixed_mode_pattern()
    assert pattern.peers(0) == [1, 2]
    assert pattern.ops_with(0, 1) == [0, 2, 3]
    assert pattern.ops_with(1, 1) == []
    assert pattern.peers(2) == [0, 1]


def test_replace_rebuilds_the_index():
    """``dataclasses.replace`` builds a new pattern from the new columns,
    indexed and checked: it keeps nothing of the old pattern's index."""
    processes = unmatched_processes()
    p1 = op_columns(1, [*op_rows(processes[1]), (0, "recv", 30.0)])
    fixed = CommPattern([processes[0], p1, op_columns(2, [])])
    assert fixed.matching_op(0, 2) == 2
    assert fixed.matching_op(1, 2) == 2
    with pytest.raises(UnmatchedOp, match="^op 2 of process 0 \\(send peer 1\\) has no match$"):
        replace(fixed, processes=processes)


def test_scenario_validation_wraps_the_unmatched_error():
    """The loader reports a pattern's own error as a ``ValidationError``,
    with the text the pattern raised."""
    text = """
[system]
freq = 2.8 ghz, 166 w, 1.0, 150 w, 1.0
[pattern]
nodes = 3
op = 0 send 1 @ 10 s every 10 s until 30 s
op = 1 recv 0 @ 10 s every 10 s until 20 s
op = 2 recv 1 @ 5 s
[checkpoint]
interval = 1000 s
duration = 10 s
[failure]
node = 0
time = 50 s
restart = 5 s
[run]
horizon = 500 s
depth = 1
"""
    with pytest.raises(UnmatchedOp) as built:
        CommPattern(unmatched_processes())
    with pytest.raises(ValidationError) as loaded:
        loads_scenario(text)
    assert str(loaded.value) == str(built.value) == "op 2 of process 0 (send peer 1) has no match"


def exchange_times(send_at, recv_at, buffered):
    """When the sender and the receiver of one blocking message may go on,
    from a failure-free pass of the engine: each process's one op is its
    last, so it goes on as it finishes."""
    pattern = op_pattern([[(1, "send", send_at)], [(0, "recv", recv_at)]], buffered=buffered)
    s = Scenario(
        name="exchange",
        profile=PROFILE,
        pattern=pattern,
        ckpt=CheckpointPolicy(interval=1000.0, duration=10.0, phase_offsets={0: 900.0, 1: 900.0}),
        failure=FailureSpec(node=0, time=500.0, restart_duration=5.0),
        depth=DepthConfig(1),
        horizon=800.0,
    )
    s.validate()
    engine = _Engine(s, _programs(pattern))
    engine.run()
    return tuple(proc.done_at for proc in engine.procs)


def test_blocking_unbuffered_synchronizes():
    assert exchange_times(10.0, 30.0, buffered=False) == (30.0, 30.0)


def test_blocking_buffered_sender_returns_early():
    assert exchange_times(10.0, 30.0, buffered=True) == (10.0, 30.0)


def test_synchronized_case():
    for buffered in (False, True):
        assert exchange_times(20.0, 20.0, buffered=buffered) == (20.0, 20.0)


def test_unmatched_op_raises():
    with pytest.raises(UnmatchedOp, match="op 0 of process 0 \\(send peer 1\\) has no match"):
        op_pattern([[(1, "send", 5.0)], []])


def test_buffering_dominance():
    for send_at, recv_at in [(10.0, 30.0), (30.0, 10.0), (5.0, 5.0)]:
        buffered_done = exchange_times(send_at, recv_at, buffered=True)[0]
        unbuffered_done = exchange_times(send_at, recv_at, buffered=False)[0]
        assert buffered_done <= unbuffered_done


def repeating_pattern():
    # P1 sends to P2 every 60 s starting at 60.
    sends = [(2, "send", 60.0 * (i + 1)) for i in range(10)]
    recvs = [(1, "recv", 60.0 * (i + 1)) for i in range(10)]
    return op_pattern([[], sends, recvs])


def next_comm(pattern, child, parent, after):
    """When ``child`` next blocks on ``parent`` if the parent fails at
    ``after``, per the block-time analysis; infinity when it never does."""
    estimates = estimate_block_times(pattern, parent, after, DepthConfig(1), offsets(pattern))
    return next((e.block_time for e in estimates if e.process == child), float("inf"))


def test_next_comm_finds_following_op():
    pattern = repeating_pattern()
    assert next_comm(pattern, 2, 1, 130.0) == 180.0


def test_next_comm_exhausted_is_infinite():
    pattern = repeating_pattern()
    assert next_comm(pattern, 2, 1, 600.0) == float("inf")


def test_next_comm_is_strict():
    sends = [(2, "send", 0.0), (2, "send", 45.0)]
    recvs = [(1, "recv", 0.0), (1, "recv", 45.0)]
    pattern = op_pattern([[], sends, recvs])
    assert next_comm(pattern, 2, 1, 0.0) == 45.0


def test_fifo_validation_rejects_disorder():
    with pytest.raises(ValueError, match="^process 0: post offsets not strictly increasing at op 1$"):
        op_pattern([
            [(1, "send", 10.0), (1, "send", 10.0)],
            [(0, "recv", 10.0), (0, "recv", 20.0)],
        ])
