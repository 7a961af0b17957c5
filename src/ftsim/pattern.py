"""Application model: per-process communication programs and MPI standard-mode
semantics (blocking/non-blocking, with or without system buffering)."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .energy import WaitMode


class Direction(enum.Enum):
    SEND = "send"
    RECV = "recv"


class OpMode(enum.Enum):
    BLOCKING = "blocking"
    NONBLOCKING = "nonblocking"


class UnmatchedOp(ValueError):
    """A send without a matching receive on the peer (or vice versa)."""


@dataclass(frozen=True)
class CommOp:
    """One communication operation in a process's program.

    ``post_time_offset`` is compute time preceding the op at the maximum
    frequency; for non-blocking ops ``wait_offset`` locates the matching
    wait call (equal to the post offset for blocking ops).
    """

    index: int
    proc: int
    peer: int
    direction: Direction
    mode: OpMode
    post_time_offset: float
    wait_offset: float

    @property
    def block_point(self) -> float:
        """Compute offset at which this op can suspend the process."""
        return self.wait_offset if self.mode is OpMode.NONBLOCKING else self.post_time_offset


@dataclass
class CommPattern:
    """Per-process programs plus the MPI semantics they run under.

    Construction builds the FIFO channel index in one pass over the ops: each
    op's sequence number on its directed channel, the per-direction op
    stream of every (process, peer) pair, and each pair's ops in program
    order. The index is not refreshed, so ``processes`` must not be mutated
    after construction; ``dataclasses.replace`` builds a new, indexed pattern.
    """

    processes: list[list[CommOp]]
    interval: float = 0.0
    buffered: bool = False
    wait_mode: WaitMode = WaitMode.ACTIVE
    message_size: int = 0
    repetition: float = 0.0  # one pattern repetition, seconds; 0 = whole program

    def __post_init__(self) -> None:
        self._streams: dict[tuple[int, int, Direction], list[CommOp]] = {}
        self._seq: dict[CommOp, int] = {}
        self._pairs: list[dict[int, list[CommOp]]] = []
        for proc, ops in enumerate(self.processes):
            pairs: dict[int, list[CommOp]] = {}
            for op in ops:
                stream = self._streams.setdefault((proc, op.peer, op.direction), [])
                if op.proc == proc:
                    # ops are looked up in their own process's program; an
                    # equal op earlier in the stream keeps its number
                    self._seq.setdefault(op, len(stream))
                stream.append(op)
                pairs.setdefault(op.peer, []).append(op)
            self._pairs.append(dict(sorted(pairs.items())))

    @property
    def nodes(self) -> int:
        return len(self.processes)

    def peers(self, proc: int) -> list[int]:
        """Processes ``proc`` communicates with, ascending."""
        return list(self._pairs[proc])

    def ops_with(self, proc: int, peer: int) -> list[CommOp]:
        """The ops of ``proc`` with ``peer``, in program order."""
        return self._pairs[proc].get(peer, [])

    def _sequence(self, op: CommOp) -> int:
        k = self._seq.get(op)
        if k is None:
            raise ValueError(f"op {op.index} of process {op.proc} is not in the pattern")
        return k

    def message_key(self, op: CommOp) -> tuple[tuple[int, int], int]:
        """((sender, receiver), k): ``op`` is a side of the k-th message on
        that directed channel."""
        channel = (op.proc, op.peer) if op.direction is Direction.SEND else (op.peer, op.proc)
        return channel, self._sequence(op)

    def matching_op(self, op: CommOp) -> CommOp:
        """Peer op paired with ``op`` by FIFO order on the directed channel."""
        k = self._sequence(op)
        want = Direction.RECV if op.direction is Direction.SEND else Direction.SEND
        theirs = self._streams.get((op.peer, op.proc, want), [])
        if k >= len(theirs):
            raise UnmatchedOp(
                f"op {op.index} of process {op.proc} ({op.direction.value} peer {op.peer}) has no match"
            )
        return theirs[k]

    def validate(self) -> None:
        for proc, ops in enumerate(self.processes):
            last = -1.0
            for op in ops:
                if op.proc != proc:
                    raise ValueError(f"op {op.index} owner mismatch")
                if op.post_time_offset <= last:
                    raise ValueError(
                        f"process {proc}: post offsets not strictly increasing at op {op.index}"
                    )
                last = op.post_time_offset
                if op.mode is OpMode.NONBLOCKING and op.wait_offset < op.post_time_offset:
                    raise ValueError(f"process {proc}: wait before post at op {op.index}")
                if not (0 <= op.peer < self.nodes) or op.peer == proc:
                    raise ValueError(f"process {proc}: bad peer {op.peer}")
        for ops in self.processes:
            for op in ops:
                self.matching_op(op)


class ProcStatus(enum.Enum):
    COMPUTING = "COMPUTING"
    BLOCKED_WAIT = "BLOCKED_WAIT"
    CHECKPOINTING = "CHECKPOINTING"
    SLEEPING = "SLEEPING"
    RESTARTING = "RESTARTING"
    REEXECUTING = "REEXECUTING"
    DONE = "DONE"


@dataclass
class ProcessState:
    """Mutable per-process simulation state (one representative process per node)."""

    node: int
    status: ProcStatus = ProcStatus.COMPUTING
    pc: int = 0
    last_ckpt_time: float = 0.0
