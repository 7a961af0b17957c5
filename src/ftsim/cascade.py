"""Failure-time analysis of which surviving processes will block, and when.

Starting from the failed process, the analysis expands level by level: the
children of the current level (the processes that communicate with it) are
assigned the time of their first communication that can no longer succeed,
searching at most ``depth`` communications per pair. The cut applies only to
an explicit depth: ``auto`` resolves to the most ops any process holds, which
no pair's candidates exceed. Within a level, a sibling that communicates with
an already-blocked sibling earlier than its current estimate has its block
time lowered until the level converges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .pattern import CommPattern, can_suspend

# for op ``index`` of process ``proc``: its projected failure-free (post,
# block point) wall times and its peer op's post
Exchange = Callable[[int, int], tuple[float, float, float]]


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


def _candidate_ops(
    pattern: CommPattern,
    child: int,
    parent: int,
    fail_time: float,
    exchange: Exchange,
) -> list[tuple[float, float]]:
    """Child ops with the parent that may still block after the failure.

    Returns (child_block_point, parent_post) pairs in time order. Ops whose
    message was already fully transferred before the failure cannot block
    and are dropped outright. Buffered send-side waits never block.
    """
    out = []
    kinds = pattern.processes[child].kinds
    for index in pattern.ops_with(child, parent):
        if not can_suspend(kinds[index], 1, pattern.buffered):
            continue
        post, block_point, peer_post = exchange(child, index)
        if block_point <= fail_time or max(post, peer_post) <= fail_time:
            continue
        out.append((block_point, peer_post))
    out.sort()
    return out


def estimate_block_times(
    pattern: CommPattern,
    failed: int,
    fail_time: float,
    depth: DepthConfig,
    exchange: Exchange,
) -> list[BlockEstimate]:
    """Level-by-level expansion with per-level convergence.

    ``exchange(proc, index)`` gives the projected failure-free post and
    block point wall times of op ``index`` of ``proc`` and the post of its
    peer op.
    """
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
                found = _first_block(pattern, child, parent, fail_time, parent_block, depth.depth, exchange)
                if found is None:
                    continue
                if child not in current or found < current[child].block_time:
                    current[child] = BlockEstimate(child, found, level, parent)

        if not current:
            break

        _converge_level(pattern, fail_time, current, exchange)
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
    exchange: Exchange,
) -> float | None:
    """First communication of ``child`` with ``parent`` that blocks, looking
    at most ``depth`` communications ahead; None when none is found.

    A communication still succeeds while the parent has not reached its own
    block, i.e. while the parent-side op is posted before the parent's block
    time; each such communication consumes one unit of depth.
    """
    examined = 0
    for block_point, parent_post in _candidate_ops(pattern, child, parent, fail_time, exchange):
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
    exchange: Exchange,
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
            ops = _candidate_ops(pattern, pid, other_id, fail_time, exchange)
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
