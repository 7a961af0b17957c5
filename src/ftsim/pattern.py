"""Application model: per-process communication programs and MPI standard-mode
semantics (blocking/non-blocking, with or without system buffering).

Each process's ops are columns (:class:`OpColumns`): the post and wait
offsets interleaved in one ``array('d')``, so that entry ``2·index + is_wait``
is op ``index``'s post (0) or wait (1); the peers in an ``array('i')``; and
each op's direction and mode as the bits ``KIND_RECV`` and
``KIND_NONBLOCKING`` of one byte. An op is named by its (process, index)
position; there is no op object.

The FIFO channel index holds, per process, one ``array('i')`` of op indices
per directed stream, keyed ``2·peer + (kind & KIND_RECV)``.
``matching_op(proc, index)`` is the one FIFO lookup. A pattern checks each op
as it indexes it, then FIFO matching per directed channel from its two
streams' lengths, with no per-op lookup.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from math import ulp
from typing import Iterator

from .energy import WaitMode

# the bits of an op's kind byte
KIND_RECV = 1  # it receives; else it sends
KIND_NONBLOCKING = 2  # it is non-blocking; else blocking


def can_suspend(kind: int, is_wait: int, buffered: bool) -> bool:
    """Whether an op of ``kind`` can suspend its process at its post
    (is_wait 0) or its wait (1): a blocking op's post or a non-blocking op's
    wait, unless the op is a buffered send."""
    return (is_wait or not kind & KIND_NONBLOCKING) and not (buffered and not kind & KIND_RECV)


class UnmatchedOp(ValueError):
    """A send without a matching receive on the peer (or vice versa)."""

    @classmethod
    def of(cls, ops: OpColumns, index: int) -> UnmatchedOp:
        direction = "recv" if ops.kinds[index] & KIND_RECV else "send"
        return cls(
            f"op {index} of process {ops.proc} ({direction} peer {ops.peers[index]}) has no match"
        )


@dataclass(slots=True)
class OpColumns:
    """The ops of process ``proc`` in program order, as columns that are
    never mutated once built."""

    proc: int
    offsets: array
    peers: array
    kinds: bytes

    def __len__(self) -> int:
        return len(self.peers)


@dataclass
class CommPattern:
    """Per-process programs, ``processes[proc]`` holding ``proc``'s ops, plus
    the MPI semantics they run under.

    Construction builds the FIFO channel index from the columns in one pass
    that checks each op (non-negative, strictly increasing posts, no wait
    before its post, a peer that is another process), then FIFO matching,
    and raises ``ValueError`` (:class:`UnmatchedOp` when unmatched) on a
    broken rule. :meth:`matching_op` is the one FIFO lookup in it. The index
    is not refreshed, so the columns must not be mutated;
    ``dataclasses.replace`` builds a new pattern, checked and indexed.
    """

    processes: list[OpColumns]
    buffered: bool = False
    wait_mode: WaitMode = WaitMode.ACTIVE

    def __post_init__(self) -> None:
        # per process, its streams keyed 2·peer + (kind & KIND_RECV), each in
        # the order of its first op: the order ``messages`` numbers them in
        self._streams: list[dict[int, array]] = []
        nodes = self.nodes
        for proc, ops in enumerate(self.processes):
            streams: dict[int, array] = {}
            last = -ulp(0.0)  # the greatest float below 0: a negative first post fails
            for index, (peer, kind, post, wait) in enumerate(
                zip(ops.peers, ops.kinds, ops.offsets[::2], ops.offsets[1::2])
            ):
                if post <= last:
                    if post < 0:
                        raise ValueError(f"process {proc}: negative post offset at op {index}")
                    raise ValueError(
                        f"process {proc}: post offsets not strictly increasing at op {index}"
                    )
                last = post
                if kind & KIND_NONBLOCKING and wait < post:
                    raise ValueError(f"process {proc}: wait before post at op {index}")
                if not (0 <= peer < nodes) or peer == proc:
                    raise ValueError(f"process {proc}: bad peer {peer}")
                key = 2 * peer + (kind & KIND_RECV)
                stream = streams.get(key)
                if stream is None:
                    stream = streams[key] = array("i")
                stream.append(index)
            self._streams.append(streams)
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
            raise UnmatchedOp.of(self.processes[proc], index)

    @property
    def nodes(self) -> int:
        return len(self.processes)

    def peers(self, proc: int) -> list[int]:
        """Processes ``proc`` communicates with, ascending."""
        return sorted({key >> 1 for key in self._streams[proc]})

    def ops_with(self, proc: int, peer: int) -> list[int]:
        """The indices of ``proc``'s ops with ``peer``, in program order."""
        streams = self._streams[proc]
        return sorted(chain(streams.get(2 * peer, ()), streams.get(2 * peer + KIND_RECV, ())))

    def matching_op(self, proc: int, index: int) -> int:
        """The index, in the peer's program, of the op paired with op
        ``index`` of ``proc`` by FIFO order on their directed channel: the
        k-th send on a channel pairs with its k-th receive."""
        ops = self.processes[proc]
        peer, recv = ops.peers[index], ops.kinds[index] & KIND_RECV
        k = bisect_left(self._streams[proc][2 * peer + recv], index)
        return self._streams[peer][2 * proc + (recv ^ KIND_RECV)][k]

    def messages(self) -> Iterator[tuple[int, int, int, int]]:
        """Every message of the pattern as (sender, receiver, send op index,
        receive op index), channel by channel, each directed channel's in
        FIFO order: its k-th send pairs with its k-th receive."""
        for sender, streams in enumerate(self._streams):
            for key, sends in streams.items():
                if not key & KIND_RECV:
                    receiver = key >> 1
                    recvs = self._streams[receiver][2 * sender + KIND_RECV]
                    for send, recv in zip(sends, recvs, strict=True):
                        yield sender, receiver, send, recv
