"""Ops written as readable rows, for the unit tests and the scenario
generators.

A row is ``(peer, "send" | "recv", post)`` for a blocking op, or
``(peer, "send" | "recv", post, wait)`` for a non-blocking one, whose wait
call is at offset ``wait``; a ``wait`` of None also means blocking.
"""

from array import array

from ftsim.pattern import KIND_NONBLOCKING, KIND_RECV, CommPattern, OpColumns

DIRECTIONS = {"send": 0, "recv": KIND_RECV}


def op_columns(proc, rows):
    """Process ``proc``'s ops, given as rows in program order."""
    offsets, peers, kinds = array("d"), array("i"), bytearray()
    for row in rows:
        peer, direction, post = row[:3]
        wait = row[3] if len(row) > 3 else None
        offsets.extend((post, post if wait is None else wait))
        peers.append(peer)
        kinds.append(DIRECTIONS[direction] | (wait is not None) * KIND_NONBLOCKING)
    return OpColumns(proc, offsets, peers, bytes(kinds))


def op_pattern(processes, **semantics):
    """A pattern whose process ``proc`` runs the rows ``processes[proc]``;
    ``semantics`` sets the other fields of :class:`CommPattern`."""
    return CommPattern([op_columns(proc, rows) for proc, rows in enumerate(processes)], **semantics)


def op_rows(ops):
    """The rows of a process's columns, each with its wait: None for a
    blocking op, so that ``op_columns(ops.proc, op_rows(ops)) == ops``."""
    return [
        (
            peer,
            "recv" if kind & KIND_RECV else "send",
            ops.offsets[2 * index],
            ops.offsets[2 * index + 1] if kind & KIND_NONBLOCKING else None,
        )
        for index, (peer, kind) in enumerate(zip(ops.peers, ops.kinds))
    ]
