"""Failure-time analysis of which surviving processes will block, and when.

Starting from the failed process, the analysis expands level by level: the
children of the current level (the processes that communicate with it) are
assigned the time of their first communication that can no longer succeed,
searching at most ``depth`` communications per pair. Within a level, a
sibling that communicates with an already-blocked sibling earlier than its
current estimate has its block time lowered until the level converges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from .pattern import CommOp, CommPattern, Direction


@dataclass(frozen=True)
class BlockEstimate:
    process: int
    block_time: float
    level: int
    cause: int


@dataclass(frozen=True)
class DepthConfig:
    depth: int

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")


def pattern_depth(pattern: CommPattern) -> int:
    """The depth ``auto`` resolves to: the most messages any process pair
    exchanges within one pattern repetition, or 1 when no process sends.

    This does not guarantee that every cascade block is found: a child whose
    exchanges with its parent keep succeeding for more than this many
    communications after the failure (as down a long chain) gets no estimate."""
    limit = pattern.repetition if pattern.repetition > 0 else float("inf")
    counts: dict[tuple[int, int], int] = {}
    for ops in pattern.processes:
        for op in ops:
            # one message per send; counting both sides would double it
            if op.direction is not Direction.SEND or op.post_time_offset >= limit:
                continue
            pair = (min(op.proc, op.peer), max(op.proc, op.peer))
            counts[pair] = counts.get(pair, 0) + 1
    return max(counts.values(), default=1)


def _candidate_ops(
    pattern: CommPattern,
    child: int,
    parent: int,
    fail_time: float,
    schedule: _Schedule,
) -> list[tuple[float, float]]:
    """Child ops with the parent that may still block after the failure.

    Returns (child_block_point, parent_post) pairs in time order. Ops whose
    message was already fully transferred before the failure cannot block
    and are dropped outright. Buffered send-side waits never block.
    """
    out = []
    for op in pattern.ops_with(child, parent):
        if pattern.buffered and op.direction is Direction.SEND:
            continue
        post, block_point, peer_post = schedule.exchange(pattern, op)
        if block_point <= fail_time or max(post, peer_post) <= fail_time:
            continue
        out.append((block_point, peer_post))
    out.sort()
    return out


Times = tuple[float, float]


class FailureFreeTimes(Protocol):
    """Projected failure-free (post, block point) wall times."""

    def exchange(self, op: CommOp) -> tuple[Times | None, CommOp, Times | None]:
        """The times of ``op``, its peer op and the peer's times; None for a
        side without them."""


class _Schedule:
    """Projected failure-free times; the pattern offsets where ``lookup``
    has none, and everywhere without a lookup."""

    def __init__(self, lookup: FailureFreeTimes | None = None):
        self._lookup = lookup

    def exchange(self, pattern: CommPattern, op: CommOp) -> tuple[float, float, float]:
        """(post, block point) of ``op`` and the post of its peer op."""
        if self._lookup is None:
            mine, peer, theirs = None, pattern.matching_op(op), None
        else:
            mine, peer, theirs = self._lookup.exchange(op)
        post, block_point = (op.post_time_offset, op.block_point) if mine is None else mine
        peer_post = peer.post_time_offset if theirs is None else theirs[0]
        return post, block_point, peer_post


def estimate_block_times(
    pattern: CommPattern,
    failed: int,
    fail_time: float,
    depth: DepthConfig,
    schedule: FailureFreeTimes | None = None,
) -> list[BlockEstimate]:
    """Level-by-level expansion with per-level convergence.

    ``schedule`` optionally gives the projected failure-free (post, block
    point) wall times of an op and of its peer op, or None where it has
    none; the pattern offsets apply there and without it.
    """
    sched = _Schedule(schedule)
    analyzed: set[int] = {failed}
    level_procs: list[tuple[int, float]] = [(failed, fail_time)]
    estimates: dict[int, BlockEstimate] = {}
    level = 0

    while True:
        level += 1
        current: dict[int, BlockEstimate] = {}
        for parent, parent_block in level_procs:
            for child in pattern.peers(parent):
                if child in analyzed:
                    continue
                found = _first_block(pattern, child, parent, fail_time, parent_block, depth.depth, sched)
                if found is None:
                    continue
                if child not in current or found < current[child].block_time:
                    current[child] = BlockEstimate(child, found, level, parent)

        if not current:
            break

        _converge_level(pattern, fail_time, current, sched)
        estimates.update(current)
        analyzed.update(current)
        level_procs = [(e.process, e.block_time) for e in current.values()]

    return sorted(estimates.values(), key=lambda e: e.process)


def _first_block(
    pattern: CommPattern,
    child: int,
    parent: int,
    fail_time: float,
    parent_block: float,
    depth: int,
    sched: _Schedule,
) -> float | None:
    """First communication of ``child`` with ``parent`` that blocks, looking
    at most ``depth`` communications ahead; None when none is found.

    A communication still succeeds while the parent has not reached its own
    block, i.e. while the parent-side op is posted before the parent's block
    time; each such communication consumes one unit of depth.
    """
    examined = 0
    for block_point, parent_post in _candidate_ops(pattern, child, parent, fail_time, sched):
        examined += 1
        if parent_post >= parent_block:
            return block_point
        if examined >= depth:
            return None
    return None


def _converge_level(
    pattern: CommPattern,
    fail_time: float,
    current: dict[int, BlockEstimate],
    sched: _Schedule,
) -> None:
    """Lower a sibling's block time when another same-level process
    communicates with it after blocking but before the sibling's estimate.

    Only communicating sibling pairs are visited, and each pair's candidate
    block points are found once for the whole level."""
    pairs: dict[int, list[tuple[int, list[float]]]] = {}
    for pid in sorted(current):
        pairs[pid] = []
        for other_id in pattern.peers(pid):
            if other_id == pid or other_id not in current:
                continue
            ops = _candidate_ops(pattern, pid, other_id, fail_time, sched)
            if ops:
                pairs[pid].append((other_id, [t for t, _ in ops]))
    changed = True
    while changed:
        changed = False
        for pid, siblings in pairs.items():
            est = current[pid]
            for other_id, times in siblings:
                other = current[other_id]
                for t in times:
                    if other.block_time < t < est.block_time:
                        est = current[pid] = BlockEstimate(pid, t, est.level, other_id)
                        changed = True
                        break
