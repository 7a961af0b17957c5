"""Simulation driver.

Three deterministic passes:

1. a failure-free run, whose messages give every op's undisturbed post,
   wait and transfer times: the later passes read them to recognize
   failure-induced waits and to decide anticipation, and the block-time
   analysis reads them for the ops it examines;
2. the reference run: the failure happens and nothing is done about it
   (the deadline, the phase durations and the energy baseline);
3. the final run with the selected strategies applied, when enabled, up to
   the last planned release, where it rejoins pass 2 (below).

Events at one instant are handled in a fixed order, written once as the
kernel bands of ``_schedule_trigger``, ``_FAILURE`` and ``_FIRST``: node n's
checkpoint trigger in band ``n - nodes + _FAILURE``, so the triggers go by
node; the failure in ``_FAILURE``; the posts of non-blocking ops in
``_FIRST`` (a replayed post is not among them); and every other event in
band 0. Within a band, events go in the order they were queued. So a wait
at the instant of its peer's non-blocking post finds the message
transferred, whichever way the post was made (below). Each node has one
pending trigger at a time: firing, it queues the node's next one unless the
node has finished, and it starts a checkpoint only while the node computes.

A milestone costs no event when nothing can interrupt its node before it, a
conservative lookahead (Chandy & Misra, IEEE TSE 1979). Once a node's next
milestone is known, ``_run_ahead`` reaches in place, through the ``_reach``
that the milestone's event would call at its instant ``t``, each milestone
from there that is neither the node's last (its event finishes the node)
nor its planned one (its compute level ends there), lies at or before the
horizon, lies strictly before the node's pending trigger and, while the
pass still has the failure ahead, the failure (the prefix that passes 2 and
3 share stops short of it), and cannot block: a non-blocking post; a wait
whose message is transferred by ``t`` or that cannot suspend, as a buffered
send's cannot; or a blocking post whose peer is suspended on its message. A
suspended peer's post is final, where a posted one's may not be: a failed
node's replay overwrites its pre-failure post at the replay's instant. A
post is thus registered at ``t``, ahead of the clock, and the first
milestone it cannot handle gets its event. Only a trigger, the failure and
a plan move a computing node, and those bounds leave them out, so the node
reaches each such milestone at ``t`` in the same state. A non-blocking
post's event goes before every event at its instant but the triggers and
the failure, so one made in place goes where its event would, unless a
band-0 milestone passed in place at ``t`` comes before it: a wait at the
post's offset (below). A blocking post made in place is seen only by its
suspended peer. And every test of a message during a pass asks whether it
was transferred by now (``not transfer <= now``, as a NaN transfer, "not
yet", compares false), so a post registered ahead is seen by no event
before its instant: a later post of the peer transfers the message at the
later instant, and a node that blocks on a message whose transfer lies
ahead queues its own completion, as no post event will come to wake it.

A post that transfers a message its peer is suspended on at the wait label
resumes that peer in place at the transfer, with no ``_on_complete`` event,
when nothing can interrupt the peer first, the transfer lying strictly
before its pending trigger, and the peer is due at no milestone at the
transfer itself (``_Proc.next_due_at``): such a milestone goes at the
completion event's turn among the events at that instant, so a blocking
post to such a peer is not made in place either. Otherwise, and for a peer
that checkpoints (the checkpoint's end resumes it) or sleeps, the post
queues the event (``_release``). A resume runs the peer's own lookahead,
whose posts may release further peers, so resumes do not nest: they go on a
FIFO worklist that ``run`` drains after each handler, and an entry whose
node is no longer suspended on that message at the wait label gets the
event instead. A fork starts with an empty worklist.

The output equals that of an event per milestone and per completion but
for the order of band-0 events at one instant, which is queued order. The
milestone a lookahead stops at is queued when the lookahead runs, earlier
than an event per milestone would queue it; and a post after a wait passed
in place at the same offset is made at once, where with an event per
milestone it waits for the wait's event. Two events that meet on one
message at one instant, a blocking post and its peer's receive, say, can
so swap, and which node then blocks first, and perhaps takes an
anticipated checkpoint, changes. A fixed class per event kind in the key,
in place of queued order, would end both.

Until the failure the three passes are one run: the failure disturbs only
what comes after it, and no strategy acts before it. So that prefix is
simulated once. Pass 1 is snapshotted right before the first event that
would follow the failure; passes 2 and 3 resume from that state with the
failure scheduled, and run exactly as if it had been injected at t = 0.

After the last planned release, pass 3 is pass 2 again, and it takes pass
2's rest instead of simulating it. The analysis reads only pass 1's
messages, so it runs before pass 2, which watches the processes it
estimates (only those get plans). Once each has recorded its first delayed
wait, the rejoin instant T* is the latest ``end`` among those waits (a
resume made in place may set one ahead of the clock), and after every event
at T* an ``_on_rejoin`` event records a digest of the pass's state
(``_Engine._state_digest``): per node its fields, its last mark and, when
that lies after T*, the label before it (a later mark at that time would
replace the last one, and may merge into that label); the pending events in
key order; and the post and transfer columns, as bytes. Pass 2 runs on to
its end and hands over its tail: each node's marks from its last one at T*
on, its ``done_at``, and the final post and transfer columns. Pass 3 runs to
the same key, (T*, inf). Where its state's digest is pass 2's, the result is
pass 3's marks and flags up to that key followed by pass 2's tail: every
planned node's cursor is past its planned wait, so no plan acts again, and
from equal states the two passes go on alike. Otherwise pass 3 runs on to
its end, as a slowed node that posts later than in pass 2 makes it.

A message's send side is entry ``2·msg`` of its pass's side columns and its
receive side entry ``2·msg + 1``: an op of ``kind`` reads entry
``2·msg + (kind & KIND_RECV)``, and its peer the other one, ``side ^ 1``.
Only the failure-free pass records when each side reached a non-blocking
wait: the later passes and the analysis read those times from its message
table, the baseline, and a fork copies only the posts and the transfers.

Each process's program is a column of milestones in execution order, one
integer each: ``2·op index + is_wait`` for an op's post (is_wait 0) or a
non-blocking op's wait (1). A milestone is named by its node and its
position in that column, and its ``_on_milestone`` event carries the
position; a replayed post is an ``_on_replay`` event, which carries its
op's index. A milestone's offset is entry ``code`` of the pattern's offset
column, and its direction and whether it blocks are read from the op's kind
byte; all passes read the pattern's own columns, and each op's message id is
stored once, in a per-process column.

A node's state marks are two columns, times in an ``array('d')`` and labels
(indices into ``_LABELS``) in a ``bytearray``, one mark per state run: a mark
at the last mark's time replaces it, and one repeating the label before it
is not stored. So the times strictly increase, neighbouring labels differ,
each mark's state lasts until the next mark and the last label is the node's
state. A planned sleep marks its go-to-sleep, sleep and wake-up ahead of
time, so it is taken only when its transitions fit before the release; a
sleeping node is labelled WAKEUP. A node is suspended on ``blocked_msg``
while labelled with the wait label (a finished node is WAIT_IDLE too),
asleep, and through a checkpoint anticipated at its wait. The trace is a view
over the final pass's marks, post and transfer columns and flags, building
each record as it is read, in trace order, one ``S`` record per mark; the
phase estimate reads pass 2's checkpoints as the CKPT runs of its marks.

Strategy evaluation and application consume no virtual time. A plan starts
at the failure with its compute level, or with its wait action for a node
already blocked at its planned wait; any level but ``profile.f_max`` runs,
whatever its beta (``level is f_max`` is the one test of a level). It then
acts at two hooks: ``_on_milestone`` ends the compute level at the planned
wait (after an anticipated checkpoint begins there, so that one runs at the
planned gamma), and ``_block_on``, where every wait begins, starts the wait
action. A plan never moves a block release: a slowed compute phase must fit
inside the reference window and must not delay any op a live peer depends
on, and a sleeping node is woken exactly at the release known from the
reference run.

Recovery re-executes the failed node from its last checkpoint up to the
position and cursor its failure left, replaying the posts not transferred
by the restart; a replay finds its message transferred by then, or posts.
The replays are queued before the re-execution's end, so go first at its
instant. A node is at ``position`` at ``resume_wall``: a wait begins at a
milestone or at recovery's end, which set it, and nothing moves it while
the node waits, so a delayed wait's ``begin`` is its ``resume_wall``.
"""

from __future__ import annotations

import heapq
import marshal
from array import array
from bisect import bisect_left
from collections import deque
from copy import copy
from dataclasses import dataclass, field
from hashlib import sha256
from itertools import chain, islice, pairwise
from math import inf, isnan, nan
from typing import Iterable, Iterator, NamedTuple

from .cascade import BlockEstimate, Exchange, estimate_block_times
from .energy import (
    FrequencyLevel,
    NodePlan,
    PhaseEstimate,
    WaitAction,
    WaitMode,
    ghz_name,
    node_best_plan,
)
from .fault import should_anticipate
from .kernel import EventQueue
from .pattern import KIND_NONBLOCKING, KIND_RECV, CommPattern, can_suspend
from .report import (
    CommRecord,
    FlagRecord,
    SavingsReport,
    StateRecord,
    TraceRecord,
    _record_time,
)
from .scenario import Scenario


# the states a node's marks name, each stored as its index in this tuple
_LABELS = (
    "COMPUTE", "WAIT_ACTIVE", "WAIT_IDLE", "CKPT", "RESTART", "REEXEC",
    "GO_SLEEP", "SLEEP", "WAKEUP",
)
(
    _M_COMPUTE, _M_WAIT_ACTIVE, _M_WAIT_IDLE, _M_CKPT, _M_RESTART, _M_REEXEC,
    _M_GO_SLEEP, _M_SLEEP, _M_WAKEUP,
) = range(len(_LABELS))

_new_record = tuple.__new__  # skips the NamedTuples' generated Python __new__

# the kernel bands at one instant: the checkpoint triggers, by node, below
# the failure's, then the failure, then the non-blocking posts in the order
# queued; every other event is in band 0
_FAILURE = -2
_FIRST = -1
# the band of pass 2's rejoin record: after every event at its instant
_REJOIN = inf


class _Programs(NamedTuple):
    """Each process's program as columns, and per message id its mode.
    ``order[node][position]`` is the milestone code ``2·op index + is_wait``
    and ``msgs[node][index]`` the op's message id, the one FIFO numbering
    that the passes, the analysis and the trace read; the op itself is in
    the pattern's columns. ``modes[msg]`` is ``KIND_NONBLOCKING`` for a
    non-blocking message, else 0."""

    order: list[array]
    msgs: list[array]
    modes: bytearray


def _programs(pattern: CommPattern) -> _Programs:
    """Each process's milestones in execution order, and each message's mode:
    that of its op on the lower-numbered process. Messages are numbered
    0..n-1 in ``pattern.messages()`` order, and both sides of a message carry
    its id. Built once per scenario and shared by all passes.

    An op's milestones are its post and, for a non-blocking op, its wait,
    each reached by an ``_on_milestone`` event. They sort by offset, then by
    code, so by (op index, is_wait)."""
    processes = pattern.processes
    msgs = [array("i", [0]) * len(ops) for ops in processes]
    modes = bytearray()
    for msg, (sender, receiver, send, recv) in enumerate(pattern.messages()):
        msgs[sender][send] = msgs[receiver][recv] = msg
        if sender < receiver:
            modes.append(processes[sender].kinds[send] & KIND_NONBLOCKING)
        else:
            modes.append(processes[receiver].kinds[recv] & KIND_NONBLOCKING)
    order = []
    for ops in processes:
        codes = []
        for index, kind in enumerate(ops.kinds):
            codes.append(2 * index)
            if kind & KIND_NONBLOCKING:
                codes.append(2 * index + 1)
        # a stable sort on the offset keeps the code order among milestones
        # at one offset
        codes.sort(key=ops.offsets.__getitem__)
        order.append(array("i", codes))
    return _new_record(_Programs, (order, msgs, modes))


@dataclass(slots=True)
class _Messages:
    """A pass's messages as ``array('d')`` columns, an entry NaN until what
    it records happens (a column holds no float objects): per side, ``2·msg
    + (kind & KIND_RECV)``, when it posted and when it reached its
    non-blocking wait; per message when it was transferred. A fork copies
    the posts and transfers: only the failure-free pass has ``wait``."""

    post: array
    transfer: array
    wait: array | None

    @classmethod
    def unsent(cls, n: int) -> _Messages:
        unsent = array("d", [nan])
        return cls(unsent * (2 * n), unsent * n, unsent * (2 * n))

    def copy(self) -> _Messages:
        return _Messages(self.post[:], self.transfer[:], None)


class _DelayedWait(NamedTuple):
    """A node's first wait of a pass that ended after its failure-free
    completion: the wait the strategies plan."""

    node: int
    milestone: int  # 2·op index + is_wait
    begin: float
    end: float


class _Tail(NamedTuple):
    """What pass 2 hands pass 3 at its rejoin key ``(at, _REJOIN)``: the
    digest of its state there (:meth:`_Engine._state_digest`), each node's
    marks from its last one at the key on, each node's ``done_at``, and its
    final post and transfer columns."""

    at: float
    digest: bytes
    mark_times: list[array]
    mark_labels: list[bytearray]
    done_at: list[float | None]
    messages: _Messages


@dataclass(slots=True)
class _Proc:
    node: int
    offsets: array  # the pattern's columns of the node's ops, shared by all passes
    peers: array
    kinds: bytes
    order: array
    msgs: array
    freq: FrequencyLevel
    cursor: int = 0
    position: float = 0.0
    resume_wall: float = 0.0
    milestone_id: int | None = None
    last_ckpt: float = 0.0
    pos_at_ckpt: float = 0.0
    done_at: float | None = None
    blocked_msg: int | None = None  # the message it is suspended on, at its cursor
    ckpt_end: float = 0.0  # when the current or last checkpoint ends
    trigger: float = inf  # when its next checkpoint trigger is due; once finished, its last one
    min_freq: bool = False  # waiting at the minimum frequency, its flag open
    mark_times: array = field(default_factory=lambda: array("d"))
    mark_labels: bytearray = field(default_factory=bytearray)  # indices into _LABELS

    def mark(self, t: float, label: int) -> None:
        """The node enters state ``_LABELS[label]`` at ``t``, no earlier than
        its last mark: a mark at the last mark's time replaces it, and one
        that would repeat the label before it is not stored, so a
        replacement that matches the label before is merged into it. Either
        way the last label is then ``label``: it is the node's state."""
        times, labels = self.mark_times, self.mark_labels
        if times and times[-1] == t:
            del times[-1], labels[-1]
        if not labels or labels[-1] != label:
            times.append(t)
            labels.append(label)

    def checkpoint_taken(self) -> None:
        """Commit the current checkpoint: a restart resumes from here."""
        self.last_ckpt = self.ckpt_end
        self.pos_at_ckpt = self.position

    def next_due_at(self, at: float) -> bool:
        """Whether the node, going on at ``at`` past the milestone at its
        cursor, is due at its next one at ``at`` too, by the sum (and clamp)
        ``_Engine._schedule_milestone`` takes; past its last one it is not."""
        following = self.cursor + 1
        if following == len(self.order):
            return False
        return not at + (self.offsets[self.order[following]] - self.position) * self.freq.beta > at

    def copy(self) -> _Proc:
        # not dataclasses.replace: on CPython 3.11.7 each replace() of a
        # 20-field instance keeps a 200 B tuple that is never freed
        twin = copy(self)
        twin.mark_times, twin.mark_labels = self.mark_times[:], self.mark_labels[:]
        return twin


class _Engine:
    """One simulation pass over a scenario, from t = 0 or, through
    :meth:`fork`, from another pass's state."""

    def __init__(self, s: Scenario, programs: _Programs):
        self.s = s
        # read from the failure on: the failure-free pass's messages and the strategies
        self.baseline: _Messages | None = None
        self.plans: dict[int, tuple[NodePlan, _DelayedWait]] = {}
        self.delayed: dict[int, _DelayedWait] = {}  # filled only in a pass with a baseline
        # pass 2's processes whose first delayed waits set its rejoin instant,
        # and its record there: (instant, state digest, each node's last mark)
        self.watch: frozenset[int] = frozenset()
        self.rejoin: tuple[float, bytes, list[int]] | None = None
        self.q = EventQueue()
        # (node, message, transfer) of each node to resume in place once the
        # handler returns, in order; empty between events
        self.resumes: deque[tuple[int, int, float]] = deque()
        self.buffered = s.pattern.buffered
        self.modes = programs.modes  # shared by forks
        # built failure-free, so it records its waits; a fork copies none
        self.messages = _Messages.unsent(len(self.modes))
        columns = zip(s.pattern.processes, programs.order, programs.msgs)
        self.procs = [
            _Proc(node, ops.offsets, ops.peers, ops.kinds, order, msgs, s.profile.f_max)
            for node, (ops, order, msgs) in enumerate(columns)
        ]
        for proc in self.procs:
            proc.mark(0.0, _M_COMPUTE)
        self.flags: list[FlagRecord] = []
        self.wait_label = _M_WAIT_ACTIVE if s.pattern.wait_mode is WaitMode.ACTIVE else _M_WAIT_IDLE
        for node in range(s.nodes):
            self._schedule_trigger(node, s.ckpt.first_trigger(node))
        # the failure's instant and band, where :meth:`inject` schedules it
        self.failure_at = (s.failure.time, _FAILURE)
        # the failure's instant while this pass has it ahead, else inf: no
        # milestone at or after it is handled in place before it
        self.failure_ahead = s.failure.time
        for proc in self.procs:
            self._schedule_milestone(proc, 0.0)

    def inject(
        self,
        baseline: _Messages | None = None,
        plans: dict[int, tuple[NodePlan, _DelayedWait]] | None = None,
        watch: frozenset[int] = frozenset(),
    ) -> None:
        """Schedule the failure at its place in the tie order, to be followed
        by anticipation against ``baseline`` and by the strategies in ``plans``;
        with a baseline, each node's first wait that ends after its
        completion there is recorded in this pass's own ``delayed``. Once
        every node of ``watch`` has one, the pass records its state at the
        latest of their ends (:meth:`_on_rejoin`)."""
        self.baseline = baseline
        self.delayed = {}
        self.plans = plans or {}
        self.watch = watch
        time, band = self.failure_at
        self.q.schedule(time, _Engine._on_failure, self.s.failure.node, band=band)

    def fork(self) -> _Engine:
        """A copy of this pass's state that runs on independently. The
        scenario, the programs, the baseline and the plans are shared."""
        twin = copy(self)
        twin.q = self.q.copy()
        twin.resumes = deque()
        twin.messages = self.messages.copy()
        twin.procs = [proc.copy() for proc in self.procs]
        twin.flags = list(self.flags)
        return twin

    # -- scheduling helpers --------------------------------------------------

    def _schedule_milestone(self, proc: _Proc, now: float) -> None:
        """Queue the event of the milestone at ``proc``'s cursor, the node
        being there at ``now``, once the milestones from there that nothing
        can interrupt are handled in place; past its last milestone the node
        has finished at ``now``."""
        if proc.cursor >= len(proc.order):
            if proc.done_at is None:
                proc.done_at = now
                proc.mark(now, _M_WAIT_IDLE)
            return
        code = proc.order[proc.cursor]
        t = proc.resume_wall + (proc.offsets[code] - proc.position) * proc.freq.beta
        if t < now:  # due now, but a resynced position rounds it a few ulps early
            assert now - t <= 1e-9 * now, (t, now)
            t = now
        t, band = self._run_ahead(proc, code, t)
        proc.milestone_id = self.q.schedule(
            t, _Engine._on_milestone, proc.node, proc.cursor, band=band
        )

    def _run_ahead(self, proc: _Proc, code: int, t: float) -> tuple[float, int]:
        """Reach in place (:meth:`_reach`, as the milestone's event would)
        each milestone from ``proc``'s cursor (``code``, due at ``t``) that
        nothing can interrupt and that cannot block: not the node's last nor
        its planned one, at or before the horizon, strictly before its
        pending trigger and, while the pass has it ahead, the failure; a
        non-blocking post, a wait whose message is transferred by then or
        that cannot suspend, or a blocking post whose peer is suspended on
        its message and due at nothing at that instant. Return the instant
        and kernel band of the milestone it stops at."""
        kinds, msgs, peers, procs = proc.kinds, proc.msgs, proc.peers, self.procs
        index = code >> 1
        if not kinds[index] & KIND_NONBLOCKING and procs[peers[index]].blocked_msg != msgs[index]:
            return t, 0  # the common blocking post, its peer not waiting: no set-up paid
        order, offsets = proc.order, proc.offsets
        transfer, buffered = self.messages.transfer, self.buffered
        last, beta, horizon = len(order) - 1, proc.freq.beta, self.s.horizon
        limit = min(proc.trigger, self.failure_ahead)
        entry = self.plans.get(proc.node)
        planned = entry[1].milestone if entry else -1
        position = proc.cursor
        while position < last and code != planned and t < limit and t <= horizon:
            index = code >> 1
            kind = kinds[index]
            if not kind & KIND_NONBLOCKING:
                # a suspended peer has posted for good: not "has posted", as
                # a failed node's replay overwrites its post at one instant
                peer = procs[peers[index]]
                if peer.blocked_msg != msgs[index]:
                    break  # the post may block: its event decides
                if peer.next_due_at(t):
                    break  # the peer goes on by a completion queued at this post's event
            elif code & 1 and not transfer[msgs[index]] <= t and can_suspend(kind, 1, buffered):
                break  # the wait may block: its event decides
            self._reach(proc, code, t)
            position += 1
            code = order[position]
            # the sum _schedule_milestone takes, so that both ways give one instant
            t += (offsets[code] - proc.position) * beta
        proc.cursor = position
        return t, (_FIRST if kinds[code >> 1] & KIND_NONBLOCKING and not code & 1 else 0)

    def _cancel_milestone(self, proc: _Proc) -> None:
        if proc.milestone_id is not None:
            self.q.cancel(proc.milestone_id)
            proc.milestone_id = None

    def _sync_position(self, proc: _Proc, now: float) -> None:
        if proc.mark_labels[-1] == _M_COMPUTE:
            proc.position += (now - proc.resume_wall) / proc.freq.beta
            proc.resume_wall = now

    # -- main loop -----------------------------------------------------------

    def run(self, until: tuple[float, ...] = (inf, inf)) -> None:
        """Handle events in (time, band, seq) order up to the horizon; stop
        early, before the first event whose key is not before ``until``. An
        event's kind is its handler, a plain function of the class: a queued
        event holds no engine, so a fork's copied queue stays valid. After
        each handler, the nodes it let go on in place resume, in order (so no
        resume recurses into another); one no longer suspended on its message
        at the wait label gets an ``_on_complete`` event instead."""
        q, resumes, procs = self.q, self.resumes, self.procs
        before = min(until, (self.s.horizon, inf))
        while (ev := q.advance(before)) is not None:
            ev.kind(self, ev)
            while resumes:
                node, msg, at = resumes.popleft()
                proc = procs[node]
                if proc.blocked_msg == msg and proc.mark_labels[-1] == self.wait_label:
                    self._resume_from_wait(proc, at)
                else:
                    q.schedule(at, _Engine._on_complete, node, payload=msg)

    # -- op handling -----------------------------------------------------------

    def _register_post(self, proc: _Proc, index: int, msg: int, now: float) -> None:
        """Record the post of ``proc``'s op ``index``, of message ``msg``."""
        post, transfer = self.messages.post, self.messages.transfer
        side = 2 * msg + (proc.kinds[index] & KIND_RECV)
        post[side] = now
        theirs = post[side ^ 1]
        if not isnan(theirs) and isnan(transfer[msg]):
            # at the later post: the peer's is later only when it was
            # handled in place, ahead of the clock
            transfer[msg] = at = theirs if theirs > now else now
            # Only the side that posted first can be suspended on the message:
            # the side posting now is computing up to it or re-executing. A
            # wait anticipated with a checkpoint resumes at the checkpoint's end.
            other = self.procs[proc.peers[index]]
            if other.blocked_msg == msg and other.mark_labels[-1] != _M_CKPT:
                self._release(other, msg, at)

    def _release(self, proc: _Proc, msg: int, at: float) -> None:
        """``proc``, suspended on ``msg``, goes on at ``at``, the transfer:
        in place, through the worklist :meth:`run` drains, when nothing can
        interrupt it first (it waits at the wait label, and ``at`` is
        strictly before its pending trigger) and it is due at no milestone
        at ``at`` itself; else at an ``_on_complete`` event, which a sleeping
        node ignores, and whose turn among the events at ``at`` is where
        such a milestone goes."""
        # ``at`` is the post's own instant, which the queue and _run_ahead
        # keep at or before the horizon and before the failure ahead
        if proc.mark_labels[-1] == self.wait_label and at < proc.trigger and not proc.next_due_at(at):
            self.resumes.append((proc.node, msg, at))
        else:
            self.q.schedule(at, _Engine._on_complete, proc.node, payload=msg)

    def _on_milestone(self, ev) -> None:
        now = ev.time
        table = self.messages
        proc = self.procs[ev.node]
        code = proc.order[ev.payload]
        index, is_wait = code >> 1, code & 1
        kind, msg = proc.kinds[index], proc.msgs[index]
        proc.milestone_id = None
        self._reach(proc, code, now)
        blocks = not table.transfer[msg] <= now and can_suspend(kind, is_wait, self.buffered)
        anticipated = blocks and self._wants_anticipation(proc, now)
        if anticipated:
            proc.blocked_msg = msg
            self._start_checkpoint(proc, now)  # before the level ends: at the planned gamma
        f = proc.freq
        if self.plans and f is not self.s.profile.f_max and self._strategy_here(proc):
            # the planned wait, also when zero-length: the level ends
            proc.freq = self.s.profile.f_max
            self.flags.append(FlagRecord(proc.node, now, "END", f"FREQ_{ghz_name(f.ghz)}"))
        if not blocks:
            proc.cursor += 1
            self._schedule_milestone(proc, now)
        elif not anticipated:
            self._block_on(proc, msg, now)

    def _reach(self, proc: _Proc, code: int, now: float) -> None:
        """``proc`` reaches milestone ``code`` at ``now``, by its event or in
        place: its position moves there, and it posts or, in the failure-free
        pass, records when it reached the wait."""
        index = code >> 1
        proc.position = proc.offsets[code]
        proc.resume_wall = now
        if not code & 1:
            self._register_post(proc, index, proc.msgs[index], now)
        elif self.messages.wait is not None:
            self.messages.wait[2 * proc.msgs[index] + (proc.kinds[index] & KIND_RECV)] = now

    # -- waits and strategies --------------------------------------------------

    def _strategy_here(self, proc: _Proc) -> tuple[NodePlan, _DelayedWait] | None:
        """``proc``'s plan when its cursor is at the planned wait: all passes
        share the programs, so that wait is a milestone code."""
        entry = self.plans.get(proc.node)
        return entry if entry and entry[1].milestone == proc.order[proc.cursor] else None

    def _block_on(self, proc: _Proc, msg: int, now: float) -> None:
        """Suspend ``proc`` on ``msg``, not transferred by ``now``, and start
        a planned wait's action."""
        proc.blocked_msg = msg
        proc.mark(now, self.wait_label)
        if self.plans and self._strategy_here(proc) is not None:
            self._apply_wait_action(proc, now)
        transfer = self.messages.transfer[msg]
        if transfer > now:  # its peer posted in place, ahead of the clock: no post event wakes it
            self.q.schedule(transfer, _Engine._on_complete, proc.node, payload=msg)

    def _failure_free_end(self, proc: _Proc) -> float:
        """When the failure-free pass let ``proc`` go on past the blocking
        milestone at its cursor: once it had reached it and the message was
        transferred; NaN when either had not happened by the horizon."""
        code = proc.order[proc.cursor]
        index, base = code >> 1, self.baseline
        msg = proc.msgs[index]
        transfer = base.transfer[msg]
        if isnan(transfer):  # max() keeps a NaN only as its first argument
            return transfer
        reach = (base.wait if code & 1 else base.post)[2 * msg + (proc.kinds[index] & KIND_RECV)]
        return max(reach, transfer)

    def _wants_anticipation(self, proc: _Proc, now: float) -> bool:
        if self.baseline is None or not should_anticipate(self.s.ckpt, now, proc.last_ckpt):
            return False
        return self._failure_free_end(proc) <= now

    def _on_complete(self, ev) -> None:
        proc = self.procs[ev.node]
        # a sleeping process is resumed by its wakeup event instead, and a
        # finished one is also labelled WAIT_IDLE but is suspended on nothing
        if proc.blocked_msg == ev.payload and proc.mark_labels[-1] == self.wait_label:
            self._resume_from_wait(proc, ev.time)

    def _resume_from_wait(self, proc: _Proc, now: float) -> None:
        if self.baseline is not None and proc.node not in self.delayed:
            if not now <= self._failure_free_end(proc):  # NaN: it never went on
                delayed = self.delayed
                delayed[proc.node] = _new_record(
                    _DelayedWait, (proc.node, proc.order[proc.cursor], proc.resume_wall, now)
                )
                if proc.node in self.watch and delayed.keys() >= self.watch:
                    # the latest end, not now: a resume made in place may
                    # have set an end ahead of the clock
                    at = max(delayed[node].end for node in self.watch)
                    self.q.schedule(at, _Engine._on_rejoin, proc.node, band=_REJOIN)
        proc.blocked_msg = None
        proc.resume_wall = now
        proc.mark(now, _M_COMPUTE)
        if proc.min_freq:
            proc.min_freq = False
            self.flags.append(FlagRecord(proc.node, now, "END", "MIN_FREQ"))
        proc.cursor += 1
        self._schedule_milestone(proc, now)

    # -- checkpoints -------------------------------------------------------------

    def _start_checkpoint(self, proc: _Proc, now: float) -> None:
        """Begin a checkpoint of the policy duration at the running level
        (``FrequencyLevel.checkpoint_time``); one taken with ``blocked_msg``
        set was anticipated at the wait at the node's cursor."""
        proc.ckpt_end = now + proc.freq.checkpoint_time(self.s.ckpt.duration)
        proc.mark(now, _M_CKPT)
        self.q.schedule(proc.ckpt_end, _Engine._on_ckpt_end, proc.node)

    def _schedule_trigger(self, node: int, t: float) -> None:
        """Queue ``node``'s checkpoint trigger at ``t``, unless it is past the
        horizon, in a band of its own below the failure's: the triggers at
        one instant go first, by node."""
        self.procs[node].trigger = t
        if t <= self.s.horizon:
            self.q.schedule(t, _Engine._on_ckpt_begin, node, band=node - len(self.procs) + _FAILURE)

    def _on_ckpt_begin(self, ev) -> None:
        now = ev.time
        proc = self.procs[ev.node]
        # a finished node never computes again, even if it fails: its
        # recovery ends finished, at ``_on_reexec_end``
        if proc.done_at is None:
            self._schedule_trigger(ev.node, self.s.ckpt.next_trigger(now))
        if proc.mark_labels[-1] != _M_COMPUTE:
            return
        self._sync_position(proc, now)
        self._cancel_milestone(proc)
        self._start_checkpoint(proc, now)

    def _on_ckpt_end(self, ev) -> None:
        proc = self.procs[ev.node]
        if proc.mark_labels[-1] != _M_CKPT:
            return  # a failure cut it short
        now = ev.time
        proc.checkpoint_taken()
        if proc.blocked_msg is None:
            proc.resume_wall = now
            proc.mark(now, _M_COMPUTE)
            self._schedule_milestone(proc, now)
            return
        # anticipated checkpoint taken at the head of a wait
        if self.messages.transfer[proc.blocked_msg] <= now:
            self._resume_from_wait(proc, now)
            return
        self._block_on(proc, proc.blocked_msg, now)

    # -- failure and recovery ------------------------------------------------

    def _on_failure(self, ev) -> None:
        proc = self.procs[ev.node]
        now = ev.time
        self.failure_ahead = inf
        if proc.mark_labels[-1] == _M_CKPT and proc.ckpt_end == now:
            proc.checkpoint_taken()  # it ends at this very instant: nothing is lost
        self._sync_position(proc, now)
        self._cancel_milestone(proc)
        proc.done_at = None  # a finished program must re-execute too
        proc.blocked_msg = None
        proc.mark(now, _M_RESTART)
        self.q.schedule(now + self.s.failure.restart_duration, _Engine._on_restart_end, proc.node)
        self._start_strategies(now)

    def _on_restart_end(self, ev) -> None:
        proc = self.procs[ev.node]
        now = ev.time
        # the position and cursor the failure left: nothing moves them before
        # ``_on_reexec_end``, as ``_sync_position`` acts only on COMPUTE, the
        # milestone was cancelled at the failure, a replayed post returns
        # before touching either, triggers skip a node not computing, and it
        # has no plan
        replay = proc.position - proc.pos_at_ckpt
        if replay > 0:
            proc.mark(now, _M_REEXEC)
        offsets, transfer = proc.offsets, self.messages.transfer
        for index, msg in enumerate(proc.msgs):
            offset = offsets[2 * index]
            if offset > proc.position:
                break  # the posts are in offset order
            # not transferred by the restart, though perhaps by the replay
            if offset > proc.pos_at_ckpt and not transfer[msg] <= now:
                t = now + (offset - proc.pos_at_ckpt)
                self.q.schedule(t, _Engine._on_replay, proc.node, index)
        self.q.schedule(now + replay, _Engine._on_reexec_end, proc.node)

    def _on_replay(self, ev) -> None:
        """The replayed post of op ``ev.payload``: a message transferred since
        the replay was scheduled keeps the post it was transferred with."""
        proc = self.procs[ev.node]
        index = ev.payload
        msg = proc.msgs[index]
        if not self.messages.transfer[msg] <= ev.time:
            self._register_post(proc, index, msg, ev.time)

    def _on_reexec_end(self, ev) -> None:
        proc = self.procs[ev.node]
        now = ev.time
        proc.resume_wall = now
        proc.mark(now, _M_COMPUTE)
        transfer = self.messages.transfer
        while proc.cursor < len(proc.order):
            code = proc.order[proc.cursor]
            if proc.offsets[code] > proc.position:
                break
            index = code >> 1
            msg = proc.msgs[index]
            # the process was suspended at this op when it failed; the post
            # (if any) was already registered or replayed
            if not transfer[msg] <= now and can_suspend(proc.kinds[index], code & 1, self.buffered):
                self._block_on(proc, msg, now)
                return
            proc.cursor += 1
        self._schedule_milestone(proc, now)

    # -- strategy application ----------------------------------------------

    def _start_strategies(self, now: float) -> None:
        for node, (plan, _) in sorted(self.plans.items()):
            proc = self.procs[node]
            blocked = proc.blocked_msg is not None and proc.mark_labels[-1] == self.wait_label
            if blocked and self._strategy_here(proc) is not None:
                # blocked at the planned wait since before the failure: there
                # is no compute phase left to slow down
                self._apply_wait_action(proc, now)
                continue
            f = plan.compute_action
            if f is not self.s.profile.f_max:
                self._sync_position(proc, now)
                proc.freq = f
                self.flags.append(FlagRecord(node, now, "BEGIN", f"FREQ_{ghz_name(f.ghz)}"))
                if proc.mark_labels[-1] == _M_COMPUTE:
                    self._cancel_milestone(proc)
                    self._schedule_milestone(proc, now)

    def _apply_wait_action(self, proc: _Proc, now: float) -> None:
        """Apply the wait action of ``proc``'s plan at its planned wait. A
        sleep is taken only when its transitions fit before the release;
        otherwise the node waits awake."""
        plan, wait = self.plans[proc.node]
        if plan.wait_action is WaitAction.NONE:
            return
        if plan.wait_action is WaitAction.MIN_FREQ:
            proc.min_freq = True
            self.flags.append(FlagRecord(proc.node, now, "BEGIN", "MIN_FREQ"))
            return
        profile, release = self.s.profile, wait.end
        if release - now < profile.t_go_sleep + profile.t_wakeup:
            return
        go_end = now + profile.t_go_sleep
        wake_start = release - profile.t_wakeup
        proc.mark(now, _M_GO_SLEEP)
        proc.mark(go_end, _M_SLEEP)
        proc.mark(wake_start, _M_WAKEUP)  # the node's state while it sleeps
        self.flags.append(FlagRecord(proc.node, now, "BEGIN", "SLEEP"))
        self.q.schedule(release, _Engine._on_wakeup_end, proc.node)

    def _on_wakeup_end(self, ev) -> None:
        proc = self.procs[ev.node]
        now = ev.time
        assert proc.mark_labels[-1] == _M_WAKEUP and proc.blocked_msg is not None
        transfer = self.messages.transfer[proc.blocked_msg]
        self.flags.append(FlagRecord(proc.node, now, "END", "SLEEP"))
        if transfer <= now:
            self._resume_from_wait(proc, now)
            return
        # a completion event resumes the process at the transfer
        proc.mark(now, self.wait_label)

    # -- rejoin ------------------------------------------------------------------

    def _on_rejoin(self, ev) -> None:
        """Pass 2 after every event at its rejoin instant: record its state's
        digest and each node's last mark, from which on its marks may change."""
        firsts = [len(proc.mark_times) - 1 for proc in self.procs]
        self.rejoin = (ev.time, self._state_digest(ev.time), firsts)

    def _state_digest(self, at: float) -> bytes:
        """sha256 of all that the pass reads after the key ``(at, _REJOIN)``.
        Per node: its fields, whether its milestone is pending, its last mark
        and, when that lies after ``at``, the label before it (a later mark at
        the last one's time replaces it, and may merge into that label; every
        later mark is at or after the clock, so after ``at``). The pending
        events in key order, as (time, band, handler, node, payload). And the
        post and transfer columns as bytes: NaN is unequal to itself."""
        # one flat list, 15 entries per node and then 5 per event (freed
        # tuples would stay on CPython's free lists, in the memory peak),
        # marshalled in format 2: floats in binary, and no back-references,
        # which would depend on object identity
        state = []
        for p in self.procs:
            times, labels = p.mark_times, p.mark_labels
            state += [
                p.cursor, p.position, p.resume_wall, p.done_at, p.blocked_msg, p.trigger,
                p.min_freq, p.freq.ghz, p.last_ckpt, p.pos_at_ckpt, p.ckpt_end,
                p.milestone_id is not None, times[-1], labels[-1],
                labels[-2] if times[-1] > at else None,
            ]
        for ev in self.q.pending():
            state += [ev.time, ev.band, ev.kind.__name__, ev.node, ev.payload]
        digest = sha256(marshal.dumps(state, 2))
        digest.update(self.messages.post)
        digest.update(self.messages.transfer)
        return digest.digest()

    def handover(self) -> _Tail | None:
        """Pass 2, run to its end, as the tail pass 3 takes at the rejoin
        key, or None when it recorded none."""
        if self.rejoin is None:
            return None
        at, digest, firsts = self.rejoin
        procs = self.procs
        times = [p.mark_times[i:] for p, i in zip(procs, firsts)]
        labels = [p.mark_labels[i:] for p, i in zip(procs, firsts)]
        done_at = [p.done_at for p in procs]
        return _new_record(_Tail, (at, digest, times, labels, done_at, self.messages))

    def run_to_rejoin(self, tail: _Tail | None) -> None:
        """Run pass 3 to its end; or, with pass 2's tail, to the rejoin key,
        and from there take pass 2's tail when the two states are equal.
        Every plan acts by then and a plan never moves a release, so the
        states are equal unless a plan changed what a later event reads."""
        if tail is not None:
            self.run(until=(tail.at, _REJOIN))
            if self._state_digest(tail.at) == tail.digest:
                columns = zip(self.procs, tail.mark_times, tail.mark_labels, tail.done_at)
                for proc, times, labels, done_at in columns:
                    del proc.mark_times[-1], proc.mark_labels[-1]  # the tail starts at it
                    proc.mark_times.extend(times)
                    proc.mark_labels.extend(labels)
                    proc.done_at = done_at
                self.messages = tail.messages
                return
        self.run()

    # -- results ----------------------------------------------------------------

    def makespan(self) -> float:
        ends = [p.done_at for p in self.procs if p.done_at is not None]
        if len(ends) == len(self.procs):
            return max(ends)
        return self.s.horizon

    def trace(self, end: float) -> _Trace:
        """The trace up to ``end``, as a view over this pass's own state."""
        return _Trace(self, end)


class _Trace:
    """A pass's trace read from its own state: the state records from each
    node's marks up to ``end``, one ``CommRecord`` per transferred message
    from the message columns (its post is the send side's, ``post[2·msg]``),
    and the strategy flags. It holds no engine, and iterates in trace order,
    each record built as it is read."""

    __slots__ = ("end", "marks", "sends", "modes", "post", "transfer", "flags")

    def __init__(self, engine: _Engine, end: float):
        self.end = end
        self.marks = [(proc.mark_times, proc.mark_labels) for proc in engine.procs]
        self.sends = [(proc.kinds, proc.msgs, proc.peers) for proc in engine.procs]
        self.modes = engine.modes
        self.post, self.transfer = engine.messages.post, engine.messages.transfer
        self.flags = engine.flags

    def __iter__(self) -> Iterator[TraceRecord]:
        """One stream per node and kind, by node and then kind (C, F, S),
        each in trace order, merged by time: a tie goes to the earlier
        stream, which is the trace's (time, node, kind) order, so no key
        tuple is built per record."""
        return heapq.merge(*self._streams(), key=_record_time)

    def _streams(self) -> Iterator[Iterable[TraceRecord]]:
        flags: list[list[FlagRecord]] = [[] for _ in self.marks]
        for flag in self.flags:  # appended as events are handled, so in time order
            flags[flag.node].append(flag)
        for node in range(len(self.marks)):
            yield self._comms(node)
            yield flags[node]
            yield self._states(node)

    def _comms(self, sender: int) -> Iterator[CommRecord]:
        """``sender``'s transferred messages by (post, transfer, id), each
        read from its send op: the receiver is the op's peer."""
        kinds, msgs, peers = self.sends[sender]
        post, transfer = self.post, self.transfer
        ops = [
            i for i, kind in enumerate(kinds)
            if not kind & KIND_RECV and not isnan(transfer[msgs[i]])
        ]
        # stable sorts, the least significant key first; a key is a plain
        # number: a key tuple per op would stay in CPython's tuple free list
        ops.sort(key=msgs.__getitem__)
        ops.sort(key=lambda i: transfer[msgs[i]])
        ops.sort(key=lambda i: post[2 * msgs[i]])
        ops = array("i", ops)  # 4 B an op while the stream is read, where a list holds 36
        modes = self.modes
        for index in ops:
            msg = msgs[index]
            mode = "NB" if modes[msg] else "B"
            yield _new_record(CommRecord, (sender, peers[index], post[2 * msg], transfer[msg], mode))

    def _states(self, node: int) -> Iterator[StateRecord]:
        """``node``'s state records, one per mark before the end: each lasts
        until the next mark, the last until the end, so neighbouring records
        share one boundary."""
        times, labels = self.marks[node]
        end = self.end
        spans = pairwise(chain(islice(times, bisect_left(times, end)), (end,)))
        for (t0, t1), label in zip(spans, labels):
            yield _new_record(StateRecord, (node, t0, t1, _LABELS[label]))


def _failure_free_times(pattern: CommPattern, msgs: list[array], baseline: _Messages) -> Exchange:
    """The analysis's exchange function: op ``index`` of ``proc``'s (post,
    block point) wall times and its peer op's post, both read from their one
    message in ``baseline``, ``msgs[proc][index]``. A non-blocking op blocks
    where its wait began. An op that never posted, or whose wait never
    completed, has its pattern offsets, the post's and the block
    milestone's; a peer has its offset post only when it never posted."""
    posts, waits = baseline.post, baseline.wait

    def exchange(proc: int, index: int) -> tuple[float, float, float]:
        ops, msg = pattern.processes[proc], msgs[proc][index]
        kind = ops.kinds[index]
        side = 2 * msg + (kind & KIND_RECV)
        post, wait, peer_post = posts[side], waits[side], posts[side ^ 1]
        if isnan(peer_post):
            theirs = pattern.matching_op(proc, index)
            peer_post = pattern.processes[ops.peers[index]].offsets[2 * theirs]
        if not isnan(post) and not kind & KIND_NONBLOCKING:
            return post, post, peer_post
        # a wait completed: reached (after its post) and, if it can suspend, transferred
        untransferred = isnan(baseline.transfer[msg])
        if not isnan(wait) and not (untransferred and can_suspend(kind, 1, pattern.buffered)):
            return post, wait, peer_post
        # the block milestone is the wait of a non-blocking op, else the post
        return ops.offsets[2 * index], ops.offsets[2 * index + (kind >> 1)], peer_post

    return exchange


def _phase_estimate(s: Scenario, ref: _Engine, wait: _DelayedWait) -> PhaseEstimate:
    fail = s.failure.time
    block, release = max(wait.begin, fail), wait.end  # a wait may begin before the failure
    proc = ref.procs[wait.node]
    times, labels = proc.mark_times, proc.mark_labels
    # the checkpoints begun before the release, as CKPT marks: each ended by
    # the release, at the next mark
    ckpts = [i for i in range(bisect_left(times, release)) if labels[i] == _M_CKPT]
    mid_ckpt = sum(max(0.0, min(times[i + 1], block) - max(times[i], fail)) for i in ckpts)
    n_ckpt = sum(1 for i in ckpts if fail <= times[i])
    return PhaseEstimate(
        node=wait.node,
        t_comp_fmax=(block - fail) - mid_ckpt,
        window=release - fail,
        n_ckpt=n_ckpt,
        t_ckpt=s.ckpt.duration,
    )


def _allowed_freqs(s: Scenario, ref: _Engine, wait: _DelayedWait) -> set[FrequencyLevel]:
    """The levels of ``s.profile`` that cannot delay any op a live peer depends on."""
    fail = s.failure.time
    impactful: list[tuple[float, float]] = []
    table, proc = ref.messages, ref.procs[wait.node]
    for peer, kind, msg in zip(proc.peers, proc.kinds, proc.msgs):  # each op's post
        if peer == s.failure.node:
            continue
        if kind & KIND_RECV and s.pattern.buffered:
            continue
        # only the failed node replays a post: a survivor's side holds its own;
        # an unposted op's NaN fails the comparison
        wall = table.post[2 * msg + (kind & KIND_RECV)]
        transfer = table.transfer[msg]
        if not (fail < wall < wait.begin) or isnan(transfer):
            continue
        impactful.append((wall, transfer))
    return {
        f for f in s.profile.freqs
        if all(fail + f.beta * (wall - fail) <= transfer for wall, transfer in impactful)
    }


@dataclass
class SimulationResult:
    report: SavingsReport
    trace: Iterable[TraceRecord]  # in trace order, built as it is read
    makespan: float
    reference_makespan: float
    estimates: list[BlockEstimate]
    reference_waits: dict[int, _DelayedWait]
    plans: list[NodePlan]
    scenario: Scenario


def _failure_free_pass(s: Scenario, programs: _Programs) -> tuple[_Engine, _Engine]:
    """Pass 1 run to the horizon, and a copy of its state at the failure
    instant, taken before the first event that follows the failure."""
    base = _Engine(s, programs)
    base.run(until=base.failure_at)
    snapshot = base.fork()
    base.failure_ahead = inf  # the failure-free pass goes on without it
    base.run()
    return base, snapshot


def simulate_detailed(s: Scenario) -> SimulationResult:
    programs = _programs(s.pattern)
    base, snapshot = _failure_free_pass(s, programs)
    baseline = base.messages  # read-only from here on
    del base  # the later passes and the analysis need only its messages

    # the analysis reads only the baseline, so pass 2 can watch the processes
    # it estimates: pass 3 plans only those
    estimates = estimate_block_times(
        s.pattern, s.failure.node, s.failure.time, s.depth,
        _failure_free_times(s.pattern, programs.msgs, baseline),
    )

    # without strategies no pass 3 resumes from the snapshot, so pass 2 runs
    # on the snapshot itself rather than on a copy
    if s.strategies_enabled:
        ref = snapshot.fork()
        ref.inject(baseline, watch=frozenset(est.process for est in estimates))
    else:
        ref = snapshot
        ref.inject(baseline)
    ref.run()
    ref_makespan = ref.makespan()

    plans: list[NodePlan] = []
    plan_map: dict[int, tuple[NodePlan, _DelayedWait]] = {}
    ref_waits: dict[int, _DelayedWait] = {}
    for est in estimates:
        wait = ref.delayed.get(est.process)
        if wait is None:
            continue
        ref_waits[est.process] = wait
        phase = _phase_estimate(s, ref, wait)
        allowed = _allowed_freqs(s, ref, wait)
        plan = node_best_plan(phase, s.profile, s.pattern.wait_mode, allowed)
        plans.append(plan)
        plan_map[est.process] = (plan, wait)

    if s.strategies_enabled and plan_map:
        tail = ref.handover()
        del ref  # pass 3 reads only pass 2's makespan, delayed waits and tail
        final = snapshot
        final.inject(baseline, plan_map)
        final.run_to_rejoin(tail)
        del tail
    else:
        final = ref
        del snapshot  # no pass 3; without strategies, this is ``ref``
    # the trace reads only the final pass's own state
    final.baseline = None
    del baseline

    end = max(final.makespan(), ref_makespan)
    return SimulationResult(
        report=SavingsReport(plans if s.strategies_enabled else [], s.profile.freqs),
        trace=final.trace(end),
        makespan=final.makespan(),
        reference_makespan=ref_makespan,
        estimates=estimates,
        reference_waits=ref_waits,
        plans=plans,
        scenario=s,
    )
