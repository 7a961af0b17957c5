import random

import pytest

from ftsim.cascade import (
    BlockEstimate,
    DepthConfig,
    _candidate_ops,
    _converge_level,
    estimate_block_times,
)

from oprows import op_pattern


def offsets(pattern):
    """The exchange of an analysis without a failure-free run: each side of
    an op's message at its pattern offsets."""

    def exchange(proc, index):
        ops = pattern.processes[proc]
        theirs = pattern.processes[ops.peers[index]]
        block = ops.offsets[2 * index + (ops.kinds[index] >> 1)]  # a non-blocking op's wait
        return ops.offsets[2 * index], block, theirs.offsets[2 * pattern.matching_op(proc, index)]

    return exchange


def build(processes):
    """The pattern of per-process rows, each process's sorted by post."""
    by_post = [sorted(rows, key=lambda row: row[2]) for rows in processes]
    return op_pattern(by_post)


def three_process_case():
    """P1 fails at t0=0; P2 blocks with P1 at t1=10, P3 with P1 at t3=30,
    but P2 and P3 also talk to each other at t2=20."""
    p1 = [(2, "send", 10.0), (3, "send", 30.0)]
    p2 = [(1, "recv", 10.0), (3, "send", 20.0)]
    p3 = [(2, "recv", 20.0), (1, "recv", 30.0)]
    return build([[], p1, p2, p3])


def test_convergence_lowers_sibling_block():
    pattern = three_process_case()
    estimates = estimate_block_times(pattern, 1, 0.0, DepthConfig(3), offsets(pattern))
    by_proc = {e.process: e for e in estimates}
    assert set(by_proc) == {2, 3}
    assert by_proc[2].block_time == 10.0
    assert by_proc[3].block_time == 20.0
    assert by_proc[3].cause == 2


def all_pairs_converge(pattern, fail_time, current, exchange):
    """Reference convergence: every ordered sibling pair on every iteration,
    candidates recomputed each time."""
    changed = True
    while changed:
        changed = False
        for pid in sorted(current):
            est = current[pid]
            for other_id in sorted(current):
                if other_id == pid:
                    continue
                other = current[other_id]
                for t, _ in _candidate_ops(pattern, pid, other_id, fail_time, exchange):
                    if other.block_time < t < est.block_time:
                        current[pid] = est = BlockEstimate(pid, t, est.level, other_id)
                        changed = True
                        break


@pytest.mark.parametrize("seed", range(30))
def test_converge_level_matches_all_pairs_reference(seed):
    rng = random.Random(seed)
    nodes = rng.randint(3, 8)
    processes = [[] for _ in range(nodes)]
    t = 0.0
    for _ in range(rng.randint(5, 40)):
        t += rng.choice([0.5, 1.0, 3.0])
        a, b = rng.sample(range(nodes), 2)
        processes[a].append((b, "send", t))
        processes[b].append((a, "recv", t))
    pattern = build(processes)
    siblings = rng.sample(range(nodes), rng.randint(2, nodes))
    level = {
        pid: BlockEstimate(pid, round(rng.uniform(0.0, t + 5.0), 1), 1, -1) for pid in siblings
    }
    fail_time = rng.uniform(0.0, t / 2)
    got, want = dict(level), dict(level)
    _converge_level(pattern, fail_time, got, offsets(pattern))
    all_pairs_converge(pattern, fail_time, want, offsets(pattern))
    assert got == want


def test_failed_without_communications():
    pattern = build([[], [(2, "send", 5.0)], [(1, "recv", 5.0)]])
    assert estimate_block_times(pattern, 0, 1.0, DepthConfig(2), offsets(pattern)) == []


def chain_pattern():
    """P0 -> P1 once; P2 sends P1 five times, four of them before P1 blocks;
    P3 sends P2 three times, the first two before P2 blocks."""
    p0 = [(1, "send", 270.0)]
    p1 = [(0, "recv", 270.0)] + [
        (2, "recv", 50.0 + 60.0 * k) for k in range(5)
    ]
    p2 = [(1, "send", 50.0 + 60.0 * k) for k in range(5)] + [
        (3, "recv", t) for t in (100.0, 210.0, 420.0)
    ]
    p3 = [(2, "send", t) for t in (100.0, 210.0, 420.0)]
    return build([p0, p1, p2, p3])


def test_depth_gates_cascade_discovery():
    pattern = chain_pattern()
    shallow = estimate_block_times(pattern, 0, 0.0, DepthConfig(1), offsets(pattern))
    assert {e.process for e in shallow} == {1}
    assert shallow[0].block_time == 270.0

    deep = estimate_block_times(pattern, 0, 0.0, DepthConfig(5), offsets(pattern))
    by_proc = {e.process: e for e in deep}
    assert set(by_proc) == {1, 2, 3}
    assert by_proc[1].block_time == 270.0
    assert by_proc[2].block_time == 290.0  # fifth attempt, four earlier ones succeed
    assert by_proc[2].level == 2
    assert by_proc[3].block_time == 420.0
    assert by_proc[3].level == 3

    # four needed examinations: depth 4 still misses the fifth communication
    mid = estimate_block_times(pattern, 0, 0.0, DepthConfig(4), offsets(pattern))
    assert {e.process for e in mid} == {1}


def test_depth_monotonicity():
    pattern = chain_pattern()
    previous: dict[int, float] = {}
    seen: set[int] = set()
    for d in range(1, 8):
        estimates = estimate_block_times(pattern, 0, 0.0, DepthConfig(d), offsets(pattern))
        current = {e.process: e.block_time for e in estimates}
        assert seen.issubset(current.keys())
        for proc, t in previous.items():
            assert current[proc] <= t
        previous, seen = current, set(current)


def test_block_times_not_before_failure():
    pattern = chain_pattern()
    estimates = estimate_block_times(pattern, 0, 100.0, DepthConfig(6), offsets(pattern))
    assert all(e.block_time >= 100.0 for e in estimates)


def test_depth_config_invariant():
    with pytest.raises(ValueError):
        DepthConfig(0)
