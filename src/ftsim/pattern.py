"""Application model: per-process communication programs and MPI standard-mode
semantics (blocking/non-blocking, with or without system buffering).

Each process's ops are stored as columns (:class:`OpColumns`): the post and
wait offsets interleaved in one ``array('d')``, so that entry
``2·index + is_wait`` is op ``index``'s post (0) or wait (1); the peers in an
``array('i')``; and each op's direction and mode as the bits ``KIND_RECV``
and ``KIND_NONBLOCKING`` of one byte. An op is named by its (process, index)
position. A :class:`CommOp` is built from the columns on demand, by indexing
or iterating them, only where a caller asks for an op: validation errors,
``message`` and ``matching_op``, and tests. A run reads the columns and
builds none.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple

from .energy import WaitMode


class Direction(enum.Enum):
    SEND = "send"
    RECV = "recv"


class OpMode(enum.Enum):
    BLOCKING = "blocking"
    NONBLOCKING = "nonblocking"


# the bits of an op's kind byte
KIND_RECV = 1  # it receives; else it sends
KIND_NONBLOCKING = 2  # it is non-blocking; else blocking
_DIRECTIONS = (Direction.SEND, Direction.RECV)
_MODES = (OpMode.BLOCKING, OpMode.NONBLOCKING)


def op_kind(direction: Direction, mode: OpMode) -> int:
    return (direction is Direction.RECV) | (mode is OpMode.NONBLOCKING) << 1


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


_new_op = tuple.__new__  # skips the NamedTuple's generated Python __new__


@dataclass(slots=True, eq=False, repr=False)
class OpColumns(Sequence):
    """The ops of process ``proc`` as columns, read as a sequence of
    :class:`CommOp`: ``ops[index]`` builds op ``index``, and iterating builds
    each in turn. The columns are never mutated once built.

    ``fault`` is ``(position, message)`` for the first op of a list given to
    :meth:`of` that does not belong at its place (another owner, or an index
    other than its position), which the columns cannot hold:
    :meth:`CommPattern.validate` raises it."""

    proc: int
    offsets: array
    peers: array
    kinds: bytes
    fault: tuple[int, str] | None = None

    @classmethod
    def of(cls, proc: int, ops: Iterable[CommOp]) -> OpColumns:
        """The columns of process ``proc``'s ops in program order."""
        offsets, peers, kinds, fault = array("d"), array("i"), bytearray(), None
        for position, (index, owner, peer, direction, mode, post, wait) in enumerate(ops):
            if fault is None and owner != proc:
                fault = (position, f"op {index} owner mismatch")
            elif fault is None and index != position:
                fault = (position, f"process {proc}: op {index} at position {position}")
            offsets.append(post)
            offsets.append(wait)
            peers.append(peer)
            kinds.append(op_kind(direction, mode))
        return cls(proc, offsets, peers, bytes(kinds), fault)

    def __len__(self) -> int:
        return len(self.peers)

    def __getitem__(self, index: int) -> CommOp:
        if index < 0:
            index += len(self.peers)
        if not 0 <= index < len(self.peers):
            raise IndexError("op index out of range")
        kind, offsets = self.kinds[index], self.offsets
        return _new_op(CommOp, (
            index, self.proc, self.peers[index], _DIRECTIONS[kind & KIND_RECV],
            _MODES[kind >> 1], offsets[2 * index], offsets[2 * index + 1],
        ))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]  # equal to a list of its ops

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.proc}, {list(self)!r})"


@dataclass
class CommPattern:
    """Per-process programs plus the MPI semantics they run under.

    ``processes`` may be given as lists of :class:`CommOp`; construction
    turns each into :class:`OpColumns` (columns are kept as they are) and
    builds the FIFO channel index from the columns in one pass: for each
    process, the indices of its ops on each of its directed channels, in
    program order. The index is not refreshed, so the columns must not be
    mutated; ``dataclasses.replace`` builds a new, indexed pattern.
    """

    processes: list[OpColumns]
    buffered: bool = False
    wait_mode: WaitMode = WaitMode.ACTIVE
    repetition: float = 0.0  # one pattern repetition, seconds; 0 = whole program

    def __post_init__(self) -> None:
        self.processes = [
            ops if isinstance(ops, OpColumns) and ops.proc == proc else OpColumns.of(proc, ops)
            for proc, ops in enumerate(self.processes)
        ]
        # per process, its streams keyed 2·peer + (kind & KIND_RECV), each in
        # the order of its first op: the order ``messages`` numbers them in
        self._streams: list[dict[int, array]] = []
        for ops in self.processes:
            streams: dict[int, array] = {}
            for index, (peer, kind) in enumerate(zip(ops.peers, ops.kinds)):
                key = 2 * peer + (kind & KIND_RECV)
                stream = streams.get(key)
                if stream is None:
                    stream = streams[key] = array("i")
                stream.append(index)
            self._streams.append(streams)

    @property
    def nodes(self) -> int:
        return len(self.processes)

    def _stream(self, proc: int, key: int) -> Sequence[int]:
        """Stream ``key`` of ``proc``; empty when ``proc`` is no process."""
        return self._streams[proc].get(key, ()) if 0 <= proc < len(self._streams) else ()

    def peers(self, proc: int) -> list[int]:
        """Processes ``proc`` communicates with, ascending."""
        return sorted({key >> 1 for key in self._streams[proc]})

    def ops_with(self, proc: int, peer: int) -> list[int]:
        """The indices of ``proc``'s ops with ``peer``, in program order."""
        return sorted(chain(self._stream(proc, 2 * peer), self._stream(proc, 2 * peer + KIND_RECV)))

    def message_at(self, proc: int, index: int) -> tuple[tuple[tuple[int, int], int], int]:
        """The message key ((sender, receiver), k) of op ``index`` of
        ``proc``, for the k-th message on that directed channel, and the
        index in the peer's program of the op on the message's other side,
        paired with it by FIFO order on the channel."""
        ops = self.processes[proc]
        peer, recv = ops.peers[index], ops.kinds[index] & KIND_RECV
        k = bisect_left(self._streams[proc][2 * peer + recv], index)
        theirs = self._stream(peer, 2 * proc + (recv ^ KIND_RECV))
        if k >= len(theirs):
            raise UnmatchedOp.of(ops[index])
        return ((peer, proc) if recv else (proc, peer), k), theirs[k]

    def message(self, op: CommOp) -> tuple[tuple[tuple[int, int], int], CommOp]:
        """``op``'s message key, as :meth:`message_at` gives it, and the peer
        op on the message's other side."""
        proc, index = op.proc, op.index
        if not (0 <= proc < len(self.processes) and 0 <= index < len(self.processes[proc])
                and self.processes[proc][index] == op):
            raise ValueError(f"op {index} of process {proc} is not in the pattern")
        key, theirs = self.message_at(proc, index)
        return key, self.processes[op.peer][theirs]

    def matching_op(self, op: CommOp) -> CommOp:
        """Peer op paired with ``op`` by FIFO order on the directed channel."""
        return self.message(op)[1]

    def messages(self) -> Iterator[tuple[tuple[tuple[int, int], int], int, int]]:
        """Every message of a validated pattern as (key, send op index,
        receive op index), channel by channel: the k-th send of a directed
        channel and its k-th receive share the key ((sender, receiver), k)."""
        for sender, streams in enumerate(self._streams):
            for key, sends in streams.items():
                if not key & KIND_RECV:
                    channel = (sender, key >> 1)
                    recvs = self._streams[key >> 1][2 * sender + KIND_RECV]
                    for k, (send, recv) in enumerate(zip(sends, recvs, strict=True)):
                        yield (channel, k), send, recv

    def validate(self) -> None:
        nodes = self.nodes
        for proc, ops in enumerate(self.processes):
            fault_at, fault = ops.fault or (len(ops), "")
            last = -1.0
            for index, (peer, kind, post, wait) in enumerate(
                zip(ops.peers, ops.kinds, ops.offsets[::2], ops.offsets[1::2])
            ):
                if index == fault_at:
                    raise ValueError(fault)
                if post <= last:
                    raise ValueError(
                        f"process {proc}: post offsets not strictly increasing at op {index}"
                    )
                last = post
                if kind & KIND_NONBLOCKING and wait < post:
                    raise ValueError(f"process {proc}: wait before post at op {index}")
                if not (0 <= peer < nodes) or peer == proc:
                    raise ValueError(f"process {proc}: bad peer {peer}")
        # FIFO matching from the channel index: past the shorter of a
        # channel's send and receive streams, every op of the longer one is
        # unmatched, the first of them at position len(shorter)
        unmatched = []
        for proc, streams in enumerate(self._streams):
            for key, stream in streams.items():
                k = len(self._streams[key >> 1].get(2 * proc + ((key & KIND_RECV) ^ KIND_RECV), ()))
                if len(stream) > k:
                    unmatched.append((proc, stream[k]))
        if unmatched:
            proc, index = min(unmatched)
            raise UnmatchedOp.of(self.processes[proc][index])
