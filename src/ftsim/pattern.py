"""Application model: per-process communication programs and MPI standard-mode
semantics (blocking/non-blocking, with or without system buffering)."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .energy import WaitMode


class Direction(enum.Enum):
    SEND = "send"
    RECV = "recv"

    # hashed in every channel key and CommOp hash: keep it in C
    __hash__ = object.__hash__


class OpMode(enum.Enum):
    BLOCKING = "blocking"
    NONBLOCKING = "nonblocking"

    __hash__ = object.__hash__  # as Direction's


class UnmatchedOp(ValueError):
    """A send without a matching receive on the peer (or vice versa)."""

    @classmethod
    def of(cls, op: CommOp) -> UnmatchedOp:
        return cls(
            f"op {op.index} of process {op.proc} ({op.direction.value} peer {op.peer}) has no match"
        )


class CommOp(NamedTuple):
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

    Construction builds the FIFO channel index in one pass over the ops: the
    sequence number on its directed channel of the op at each position of
    each program, the per-direction op stream of every (process, peer) pair,
    and each pair's ops in program order. The index is not refreshed, so
    ``processes`` must not be mutated after construction;
    ``dataclasses.replace`` builds a new, indexed pattern.
    """

    processes: list[list[CommOp]]
    buffered: bool = False
    wait_mode: WaitMode = WaitMode.ACTIVE
    repetition: float = 0.0  # one pattern repetition, seconds; 0 = whole program

    def __post_init__(self) -> None:
        self._streams: dict[tuple[int, int, Direction], list[CommOp]] = {}
        # looked up by (proc, index), not by hashing the op: an op's index is
        # its position once validated
        self._seq: list[list[int]] = []
        self._pairs: list[dict[int, list[CommOp]]] = []
        streams = self._streams
        for proc, ops in enumerate(self.processes):
            seq: list[int] = []
            pairs: dict[int, list[CommOp]] = {}
            for op in ops:
                _, _, peer, direction, _, _, _ = op
                stream = streams.setdefault((proc, peer, direction), [])
                seq.append(len(stream))
                stream.append(op)
                pairs.setdefault(peer, []).append(op)
            self._seq.append(seq)
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
        proc, index = op.proc, op.index
        if 0 <= proc < len(self.processes) and 0 <= index < len(self.processes[proc]):
            mine = self.processes[proc][index]
            if mine is op or mine == op:
                return self._seq[proc][index]
        raise ValueError(f"op {op.index} of process {op.proc} is not in the pattern")

    def message(self, op: CommOp) -> tuple[tuple[tuple[int, int], int], CommOp]:
        """``op``'s message key ((sender, receiver), k), for the k-th message
        on that directed channel, and the peer op on the message's other
        side, paired with it by FIFO order on the channel."""
        k = self._sequence(op)
        if op.direction is Direction.SEND:
            key, want = ((op.proc, op.peer), k), Direction.RECV
        else:
            key, want = ((op.peer, op.proc), k), Direction.SEND
        theirs = self._streams.get((op.peer, op.proc, want), [])
        if k >= len(theirs):
            raise UnmatchedOp.of(op)
        return key, theirs[k]

    def matching_op(self, op: CommOp) -> CommOp:
        """Peer op paired with ``op`` by FIFO order on the directed channel."""
        return self.message(op)[1]

    def messages(self) -> Iterator[tuple[tuple[tuple[int, int], int], CommOp, CommOp]]:
        """Every message of a validated pattern as (key, send op, receive
        op), channel by channel: the k-th send of a directed channel and its
        k-th receive share the key ((sender, receiver), k)."""
        for (proc, peer, direction), sends in self._streams.items():
            if direction is Direction.SEND:
                channel = (proc, peer)
                recvs = self._streams[(peer, proc, Direction.RECV)]
                for k, (send, recv) in enumerate(zip(sends, recvs, strict=True)):
                    yield (channel, k), send, recv

    def validate(self) -> None:
        nodes, nonblocking = self.nodes, OpMode.NONBLOCKING
        for proc, ops in enumerate(self.processes):
            last = -1.0
            for position, (index, owner, peer, _, mode, post, wait) in enumerate(ops):
                if owner != proc:
                    raise ValueError(f"op {index} owner mismatch")
                if index != position:
                    raise ValueError(f"process {proc}: op {index} at position {position}")
                if post <= last:
                    raise ValueError(
                        f"process {proc}: post offsets not strictly increasing at op {index}"
                    )
                last = post
                if mode is nonblocking and wait < post:
                    raise ValueError(f"process {proc}: wait before post at op {index}")
                if not (0 <= peer < nodes) or peer == proc:
                    raise ValueError(f"process {proc}: bad peer {peer}")
        # FIFO matching from the channel index: past the shorter of a
        # channel's send and receive streams, every op of the longer one is
        # unmatched, the first of them at position len(shorter)
        send, recv = Direction.SEND, Direction.RECV
        unmatched = []
        for (proc, peer, direction), stream in self._streams.items():
            k = len(self._streams.get((peer, proc, recv if direction is send else send), ()))
            if len(stream) > k:
                unmatched.append(stream[k])
        if unmatched:
            raise UnmatchedOp.of(min(unmatched, key=lambda op: (op.proc, op.index)))
