"""Simulation driver.

Three deterministic passes:

1. a failure-free run, whose message record gives every operation's
   undisturbed post, wait and completion times (used to recognize
   failure-induced waits and to decide anticipation; the block-time
   analysis reads its projected post and block times from these messages
   directly, only for the ops it examines);
2. the reference run: the failure happens and nothing is done about it
   (defines the deadline, the phase durations and the no-intervention
   energy baseline);
3. the final run with the selected strategies applied, when enabled.

Until the failure the three passes are one run: the failure disturbs only
what comes after it, and no strategy acts before it. So that prefix is
simulated once. Pass 1 reserves the failure event's place in the tie order
and is snapshotted right before the first event that would follow it; passes
2 and 3 resume from copies of that state with the failure scheduled, and run
exactly as if it had been injected at t = 0.

Strategy evaluation and application consume no virtual time. Applying a
strategy never moves a block release: a slowed compute phase must fit inside
the reference window and must not delay any operation a live peer depends
on, and sleeping nodes are woken exactly at the release known from the
reference run.
"""

from __future__ import annotations

import enum
from copy import copy
from dataclasses import dataclass, field, replace
from math import inf
from typing import NamedTuple

from .cascade import BlockEstimate, FailureFreeTimes, estimate_block_times
from .energy import (
    FrequencyLevel,
    NodePlan,
    PhaseEstimate,
    WaitAction,
    WaitMode,
    node_best_plan,
)
from .fault import should_anticipate
from .kernel import EmptyQueue, EventKind, EventQueue
from .pattern import CommOp, CommPattern, Direction, OpMode
from .report import CommRecord, FlagRecord, SavingsReport, StateRecord, TraceRecord
from .scenario import Scenario


class ProcStatus(enum.Enum):
    COMPUTING = "COMPUTING"
    BLOCKED_WAIT = "BLOCKED_WAIT"
    CHECKPOINTING = "CHECKPOINTING"
    SLEEPING = "SLEEPING"
    RESTARTING = "RESTARTING"
    REEXECUTING = "REEXECUTING"
    DONE = "DONE"


_Key = tuple[tuple[int, int], int]  # ((sender, receiver), k): the k-th message on a channel


class _Item(NamedTuple):
    """One milestone in a process's program: an op post or its wait, the
    event kind that reaches it (POST_SEND, POST_RECV or WAIT_ENTER), and
    whether it suspends the process until its message is transferred.

    (offset, index, is_wait) is unique within a program, so items sort by
    their leading fields and never compare ops."""

    offset: float
    index: int  # the op's index in its program
    is_wait: bool
    op: CommOp
    key: _Key
    kind: EventKind
    blocks: bool
    replay: bool = False


# both skip the NamedTuples' generated Python __new__
_new_item = _new_record = tuple.__new__

_Programs = tuple[list[list[_Item]], dict[_Key, OpMode]]


def _can_block(sends: bool, buffered: bool) -> bool:
    """Whether an op can suspend its process: a buffered send never does."""
    return not (buffered and sends)


def _wait_item(op: CommOp, key: _Key, blocks: bool) -> _Item:
    """A non-blocking op's wait."""
    return _new_item(
        _Item, (op.wait_offset, op.index, True, op, key, EventKind.WAIT_ENTER, blocks, False)
    )


def _milestones(op: CommOp, key: _Key, post: EventKind, blocks: bool) -> list[_Item]:
    """``op``'s milestones: its post, reached by a ``post`` event, and for a
    non-blocking op its wait. The last is the one at which ``op`` blocks, if
    it ``blocks`` at all: a blocking op blocks at its post and a non-blocking
    one at its wait."""
    at = op.post_time_offset
    if op.mode is OpMode.NONBLOCKING:
        return [
            _new_item(_Item, (at, op.index, False, op, key, post, False, False)),
            _wait_item(op, key, blocks),
        ]
    return [_new_item(_Item, (at, op.index, False, op, key, post, blocks, False))]


def _programs(pattern: CommPattern) -> _Programs:
    """Each process's milestones in execution order, and each message's mode:
    that of its op on the lower-numbered process. The two sides of a message
    share its key. Built once per scenario and shared by all passes."""
    programs: list[list[_Item]] = [[] for _ in pattern.processes]
    modes: dict[_Key, OpMode] = {}
    post_send, post_recv = EventKind.POST_SEND, EventKind.POST_RECV
    send_blocks = _can_block(True, pattern.buffered)
    recv_blocks = _can_block(False, pattern.buffered)
    for key, send, recv in pattern.messages():
        modes[key] = send.mode if send.proc < recv.proc else recv.mode
        programs[send.proc] += _milestones(send, key, post_send, send_blocks)
        programs[recv.proc] += _milestones(recv, key, post_recv, recv_blocks)
    for items in programs:
        items.sort()
    return programs, modes


@dataclass(slots=True)
class _Message:
    """One message of a pass: when each side posted it and reached its
    non-blocking wait, and when it was transferred. The failure-free pass's
    messages are the baseline that the later passes and the analysis read."""

    send_post: float | None = None
    recv_post: float | None = None
    send_wait: float | None = None
    recv_wait: float | None = None
    transfer: float | None = None
    mode: OpMode = OpMode.BLOCKING
    send_blocked: bool = False  # the sender is suspended until the transfer
    recv_blocked: bool = False

    def copy(self) -> _Message:
        return _Message(
            self.send_post, self.recv_post, self.send_wait, self.recv_wait,
            self.transfer, self.mode, self.send_blocked, self.recv_blocked,
        )

    def set_blocked(self, op: CommOp, blocked: bool) -> None:
        """Mark ``op``'s side as suspended on this message, or no longer."""
        if op.direction is Direction.SEND:
            self.send_blocked = blocked
        else:
            self.recv_blocked = blocked

    def post(self, op: CommOp) -> float | None:
        """When ``op``'s side posted."""
        return self.send_post if op.direction is Direction.SEND else self.recv_post

    def reached(self, item: _Item) -> float | None:
        """When ``item``'s process reached it; a replayed post counts from its replay."""
        if not item.is_wait:
            return self.post(item.op)
        return self.send_wait if item.op.direction is Direction.SEND else self.recv_wait

    def completion(self, item: _Item) -> float | None:
        """When a failure-free pass let ``item``'s process go on: on reaching
        it, or for an item that can block, once the message is also
        transferred; None when either had not happened by the horizon."""
        reach = self.reached(item)
        if reach is None or not item.blocks:
            return reach
        return None if self.transfer is None else max(reach, self.transfer)


@dataclass(slots=True)
class _WaitLog:
    node: int
    item: _Item
    begin: float
    end: float | None = None

    def copy(self) -> _WaitLog:
        return _WaitLog(self.node, self.item, self.begin, self.end)


@dataclass
class _Proc:
    node: int
    items: list[_Item]
    freq: FrequencyLevel
    cursor: int = 0
    position: float = 0.0
    resume_wall: float = 0.0
    status: ProcStatus = ProcStatus.COMPUTING
    milestone_id: int | None = None
    last_ckpt: float = 0.0
    pos_at_ckpt: float = 0.0
    done_at: float | None = None
    blocked_item: _Item | None = None
    pc_at_failure: int = 0
    pos_at_failure: float = 0.0
    ckpt_span: tuple[float, float] = (0.0, 0.0)
    ckpt_spans: list[tuple[float, float]] = field(default_factory=list)
    segments: list[tuple[float, str]] = field(default_factory=list)

    def mark(self, t: float, label: str) -> None:
        if self.segments and self.segments[-1][0] == t:
            self.segments[-1] = (t, label)
            return
        self.segments.append((t, label))

    def checkpoint_taken(self) -> None:
        """Commit the current checkpoint: a restart resumes from here."""
        self.last_ckpt = self.ckpt_span[1]
        self.pos_at_ckpt = self.position
        self.ckpt_spans.append(self.ckpt_span)

    def copy(self) -> _Proc:
        return replace(self, segments=list(self.segments), ckpt_spans=list(self.ckpt_spans))


class _Engine:
    """One simulation pass over a scenario, from t = 0 or, through
    :meth:`fork`, from another pass's state."""

    def __init__(self, s: Scenario, programs: _Programs, inject_failure: bool):
        self.s = s
        # read from the failure on: the failure-free pass's messages and the strategies
        self.baseline: dict[_Key, _Message] | None = None
        self.plans: dict[int, tuple[NodePlan, _WaitLog]] = {}
        self.q = q = EventQueue()
        items, modes = programs
        self.messages = {key: _Message(mode=mode) for key, mode in modes.items()}
        self.procs = [_Proc(node, program, s.profile.f_max) for node, program in enumerate(items)]
        for proc in self.procs:
            proc.mark(0.0, "COMPUTE")
        self.wait_logs: dict[int, list[_WaitLog]] = {i: [] for i in range(s.nodes)}
        self.comm_records: list[CommRecord] = []
        self.flags: list[FlagRecord] = []
        self._minfreq_open: set[int] = set()
        self.wait_label = (
            "WAIT_ACTIVE" if s.pattern.wait_mode is WaitMode.ACTIVE else "WAIT_IDLE"
        )
        for node in range(s.nodes):
            for t in s.ckpt.triggers(node, s.horizon):
                q.schedule(t, EventKind.CKPT_BEGIN, node)
        # the failure's (time, seq): a failure-free pass keeps its place in
        # the tie order, so that a fork taken there can schedule it
        self.failure_at = (s.failure.time, q.reserve())
        if inject_failure:
            self.inject()
        for proc in self.procs:
            self._schedule_milestone(proc)

    def inject(
        self,
        baseline: dict[_Key, _Message] | None = None,
        plans: dict[int, tuple[NodePlan, _WaitLog]] | None = None,
    ) -> None:
        """Schedule the failure at its reserved place, to be followed by
        anticipation against ``baseline`` and by the strategies in ``plans``."""
        self.baseline = baseline
        self.plans = plans or {}
        time, seq = self.failure_at
        self.q.schedule(time, EventKind.FAILURE, self.s.failure.node, seq=seq)

    def fork(self) -> _Engine:
        """A copy of this pass's state that runs on independently. The
        scenario, the programs, the baseline and the plans are shared."""
        twin = copy(self)
        twin.q = self.q.copy()
        twin.messages = {key: msg.copy() for key, msg in self.messages.items()}
        twin.procs = [proc.copy() for proc in self.procs]
        twin.wait_logs = {
            node: [log.copy() for log in logs] for node, logs in self.wait_logs.items()
        }
        twin.comm_records = list(self.comm_records)
        twin.flags = list(self.flags)
        twin._minfreq_open = set(self._minfreq_open)
        return twin

    # -- scheduling helpers --------------------------------------------------

    def _schedule_milestone(self, proc: _Proc) -> None:
        if proc.cursor >= len(proc.items):
            if proc.done_at is None:
                proc.done_at = self.q.clock
                proc.status = ProcStatus.DONE
                proc.mark(self.q.clock, "WAIT_IDLE")
            return
        item = proc.items[proc.cursor]
        t = proc.resume_wall + (item.offset - proc.position) * proc.freq.beta
        proc.milestone_id = self.q.schedule(t, item.kind, proc.node, item)

    def _cancel_milestone(self, proc: _Proc) -> None:
        if proc.milestone_id is not None:
            self.q.cancel(proc.milestone_id)
            proc.milestone_id = None

    def _sync_position(self, proc: _Proc, now: float) -> None:
        if proc.status is ProcStatus.COMPUTING:
            proc.position += (now - proc.resume_wall) / proc.freq.beta
            proc.resume_wall = now

    # -- main loop -----------------------------------------------------------

    def run(self, until: tuple[float, float] = (inf, inf)) -> None:
        """Handle events in (time, seq) order up to the horizon; stop early,
        before the first event whose key is not before ``until``."""
        # bound methods: a table kept on the engine would be a reference cycle
        handlers = {
            EventKind.POST_SEND: self._on_item,
            EventKind.POST_RECV: self._on_item,
            EventKind.WAIT_ENTER: self._on_item,
            EventKind.COMM_COMPLETE: self._on_complete,
            EventKind.CKPT_BEGIN: self._on_ckpt_begin,
            EventKind.CKPT_END: self._on_ckpt_end,
            EventKind.FAILURE: self._on_failure,
            EventKind.RESTART_END: self._on_restart_end,
            EventKind.REEXEC_END: self._on_reexec_end,
            EventKind.WAKEUP_END: self._on_wakeup_end,
        }
        q = self.q
        before = min(until, (self.s.horizon, inf))
        try:
            while (ev := q.advance(before)) is not None:
                handlers[ev.kind](ev)
        except EmptyQueue:
            pass

    # -- op handling -----------------------------------------------------------

    def _register_post(self, item: _Item, now: float) -> _Message:
        msg = self.messages[item.key]
        if item.kind is EventKind.POST_SEND:
            msg.send_post = now
        else:
            msg.recv_post = now
        if msg.send_post is not None and msg.recv_post is not None and msg.transfer is None:
            msg.transfer = max(msg.send_post, msg.recv_post)
            (sender, receiver), _ = item.key
            self.comm_records.append(
                _new_record(
                    CommRecord,
                    (sender, receiver, msg.send_post, msg.transfer,
                     "NB" if msg.mode is OpMode.NONBLOCKING else "B"),
                )
            )
            if msg.send_blocked or msg.recv_blocked:
                # the blocked sides' completions, in ascending node order
                sides = ((sender, msg.send_blocked), (receiver, msg.recv_blocked))
                for waiter, blocked in sides if sender < receiver else sides[::-1]:
                    if blocked:
                        self.q.schedule(msg.transfer, EventKind.COMM_COMPLETE, waiter, payload=item.key)
        return msg

    def _on_item(self, ev) -> None:
        item: _Item = ev.payload
        now = ev.time
        if item.replay:
            self._register_post(item, now)
            return
        proc = self.procs[ev.node]
        proc.milestone_id = None
        proc.position = item.offset
        proc.resume_wall = now
        if item.is_wait:
            msg = self.messages[item.key]
            if item.op.direction is Direction.SEND:
                msg.send_wait = now
            else:
                msg.recv_wait = now
        else:
            msg = self._register_post(item, now)
        if msg.transfer is None and item.blocks:
            self.wait_logs[proc.node].append(_WaitLog(proc.node, item, begin=now))
            self._enter_wait(proc, item, msg, now)
            return
        if proc.node in self.plans and self._strategy_here(proc, item) is not None:
            # zero-length wait: the compute intervention still ends here
            self._end_compute_strategy(proc, now)
        proc.cursor += 1
        self._schedule_milestone(proc)

    # -- waits and strategies --------------------------------------------------

    def _strategy_here(self, proc: _Proc, item: _Item) -> tuple[NodePlan, _WaitLog] | None:
        entry = self.plans.get(proc.node)
        if entry is None:
            return None
        # all passes share the programs, so the planned wait is this very item
        return entry if entry[1].item is item else None

    def _enter_wait(self, proc: _Proc, item: _Item, msg: _Message, now: float) -> None:
        anticipated = self._wants_anticipation(proc, item, now)
        strategy = self._strategy_here(proc, item)
        if anticipated:
            proc.blocked_item = item
            self._start_checkpoint(proc, now, item)
            if strategy is not None:
                self._end_compute_strategy(proc, now)
            return
        if strategy is not None:
            self._end_compute_strategy(proc, now)
        self._block_on(proc, item, msg, now)
        if strategy is not None and proc.status is ProcStatus.BLOCKED_WAIT:
            self._apply_wait_action(proc, strategy[0], strategy[1], now)

    def _block_on(self, proc: _Proc, item: _Item, msg: _Message, now: float) -> None:
        proc.status = ProcStatus.BLOCKED_WAIT
        proc.blocked_item = item
        msg.set_blocked(item.op, True)
        proc.mark(now, self.wait_label)

    def _wants_anticipation(self, proc: _Proc, item: _Item, now: float) -> bool:
        if not self.s.ckpt.anticipation_enabled or self.baseline is None:
            return False
        if not should_anticipate(self.s.ckpt, now, proc.last_ckpt):
            return False
        base = self.baseline[item.key].completion(item)
        return base is not None and base <= now

    def _on_complete(self, ev) -> None:
        proc = self.procs[ev.node]
        item = proc.blocked_item
        # a sleeping process is resumed by its wakeup event instead
        if proc.status is not ProcStatus.BLOCKED_WAIT or item is None:
            return
        if item.key == ev.payload:
            self._resume_from_wait(proc, item, self.messages[item.key], ev.time)

    def _resume_from_wait(self, proc: _Proc, item: _Item, msg: _Message, now: float) -> None:
        log = self.wait_logs[proc.node][-1]
        log.end = now
        msg.set_blocked(item.op, False)
        proc.blocked_item = None
        proc.status = ProcStatus.COMPUTING
        proc.resume_wall = now
        proc.mark(now, "COMPUTE")
        if proc.node in self._minfreq_open:
            self._minfreq_open.discard(proc.node)
            self.flags.append(FlagRecord(proc.node, now, "END", "MIN_FREQ"))
        proc.cursor += 1
        self._schedule_milestone(proc)

    # -- checkpoints -------------------------------------------------------------

    def _start_checkpoint(self, proc: _Proc, now: float, item: _Item | None = None) -> None:
        """Begin a checkpoint lasting the policy duration times the running
        frequency's gamma; ``item`` is the wait it was anticipated at, if any."""
        end = now + self.s.ckpt.duration * proc.freq.gamma
        proc.status = ProcStatus.CHECKPOINTING
        proc.ckpt_span = (now, end)
        proc.mark(now, "CKPT")
        self.q.schedule(end, EventKind.CKPT_END, proc.node, payload=item)

    def _on_ckpt_begin(self, ev) -> None:
        proc = self.procs[ev.node]
        if proc.status is not ProcStatus.COMPUTING:
            return
        now = ev.time
        self._sync_position(proc, now)
        self._cancel_milestone(proc)
        self._start_checkpoint(proc, now)

    def _on_ckpt_end(self, ev) -> None:
        proc = self.procs[ev.node]
        if proc.status is not ProcStatus.CHECKPOINTING:
            return
        now = ev.time
        proc.checkpoint_taken()
        item: _Item | None = ev.payload
        if item is None:
            proc.status = ProcStatus.COMPUTING
            proc.resume_wall = now
            proc.mark(now, "COMPUTE")
            self._schedule_milestone(proc)
            return
        # anticipated checkpoint taken at the head of a wait
        msg = self.messages[item.key]
        strategy = self._strategy_here(proc, item)
        if msg.transfer is not None:
            self._resume_from_wait(proc, item, msg, max(now, msg.transfer))
            return
        self._block_on(proc, item, msg, now)
        if strategy is not None:
            self._apply_wait_action(proc, strategy[0], strategy[1], now)

    # -- failure and recovery ------------------------------------------------

    def _on_failure(self, ev) -> None:
        proc = self.procs[ev.node]
        now = ev.time
        if proc.status is ProcStatus.CHECKPOINTING and proc.ckpt_span[1] == now:
            proc.checkpoint_taken()  # it ends at this very instant: nothing is lost
        self._sync_position(proc, now)
        self._cancel_milestone(proc)
        if proc.blocked_item is not None:
            self.messages[proc.blocked_item.key].set_blocked(proc.blocked_item.op, False)
            if self.wait_logs[proc.node] and self.wait_logs[proc.node][-1].end is None:
                self.wait_logs[proc.node][-1].end = now
        proc.pos_at_failure = proc.position
        proc.pc_at_failure = proc.cursor
        proc.done_at = None  # a finished program must re-execute too
        proc.blocked_item = None
        proc.status = ProcStatus.RESTARTING
        proc.mark(now, "RESTART")
        self.q.schedule(now + self.s.failure.restart_duration, EventKind.RESTART_END, proc.node)
        self._start_strategies(now)

    def _on_restart_end(self, ev) -> None:
        proc = self.procs[ev.node]
        now = ev.time
        replay = proc.pos_at_failure - proc.pos_at_ckpt
        proc.status = ProcStatus.REEXECUTING
        if replay > 0:
            proc.mark(now, "REEXEC")
        for item in proc.items:
            if item.is_wait:
                continue
            if proc.pos_at_ckpt < item.offset <= proc.pos_at_failure:
                if self.messages[item.key].transfer is None:
                    t = now + (item.offset - proc.pos_at_ckpt)
                    self.q.schedule(t, item.kind, proc.node, payload=item._replace(replay=True))
        self.q.schedule(now + replay, EventKind.REEXEC_END, proc.node)

    def _on_reexec_end(self, ev) -> None:
        proc = self.procs[ev.node]
        now = ev.time
        proc.status = ProcStatus.COMPUTING
        proc.position = proc.pos_at_failure
        proc.resume_wall = now
        proc.cursor = proc.pc_at_failure
        proc.mark(now, "COMPUTE")
        while proc.cursor < len(proc.items):
            item = proc.items[proc.cursor]
            if item.offset > proc.pos_at_failure:
                break
            # the process was suspended at this op when it failed; the post
            # (if any) was already registered or replayed
            msg = self.messages[item.key]
            if msg.transfer is None and item.blocks:
                self.wait_logs[proc.node].append(_WaitLog(proc.node, item, begin=now))
                self._block_on(proc, item, msg, now)
                return
            proc.cursor += 1
        self._schedule_milestone(proc)

    # -- strategy application ----------------------------------------------

    def _start_strategies(self, now: float) -> None:
        for node in sorted(self.plans):
            plan, ref = self.plans[node]
            proc = self.procs[node]
            if proc.status is ProcStatus.BLOCKED_WAIT and proc.blocked_item is ref.item:
                # blocked at the planned wait since before the failure: there
                # is no compute phase left to slow down
                self._apply_wait_action(proc, plan, ref, now)
                continue
            f = plan.compute_action
            if f.beta != 1.0:
                self._sync_position(proc, now)
                proc.freq = f
                self.flags.append(FlagRecord(node, now, "BEGIN", f"FREQ_{f.ghz:g}"))
                if proc.status is ProcStatus.COMPUTING:
                    self._cancel_milestone(proc)
                    self._schedule_milestone(proc)

    def _end_compute_strategy(self, proc: _Proc, now: float) -> None:
        plan, _ = self.plans[proc.node]
        f = plan.compute_action
        if f.beta != 1.0 and proc.freq == f:
            proc.freq = self.s.profile.f_max
            self.flags.append(FlagRecord(proc.node, now, "END", f"FREQ_{f.ghz:g}"))

    def _apply_wait_action(self, proc: _Proc, plan: NodePlan, ref: _WaitLog, now: float) -> None:
        profile = self.s.profile
        release = ref.end
        if release is None or plan.wait_action is WaitAction.NONE:
            return
        if plan.wait_action is WaitAction.MIN_FREQ:
            self._minfreq_open.add(proc.node)
            self.flags.append(FlagRecord(proc.node, now, "BEGIN", "MIN_FREQ"))
            return
        go_end = now + profile.t_go_sleep
        wake_start = release - profile.t_wakeup
        proc.mark(now, "GO_SLEEP")
        proc.mark(go_end, "SLEEP")
        proc.mark(wake_start, "WAKEUP")
        proc.status = ProcStatus.SLEEPING
        self.flags.append(FlagRecord(proc.node, now, "BEGIN", "SLEEP"))
        self.q.schedule(release, EventKind.WAKEUP_END, proc.node)

    def _on_wakeup_end(self, ev) -> None:
        proc = self.procs[ev.node]
        now = ev.time
        assert proc.status is ProcStatus.SLEEPING and proc.blocked_item is not None
        item = proc.blocked_item
        msg = self.messages[item.key]
        proc.status = ProcStatus.BLOCKED_WAIT
        self.flags.append(FlagRecord(proc.node, now, "END", "SLEEP"))
        if msg.transfer is not None and msg.transfer <= now:
            self._resume_from_wait(proc, item, msg, now)
            return
        # The completing post lands at this very instant; the pending
        # completion event resumes the process right after it.
        proc.mark(now, self.wait_label)

    # -- results ----------------------------------------------------------------

    def makespan(self) -> float:
        ends = [p.done_at for p in self.procs if p.done_at is not None]
        if len(ends) == len(self.procs):
            return max(ends)
        return self.s.horizon

    def state_records(self, end: float) -> list[StateRecord]:
        out = []
        for proc in self.procs:
            marks = [(t, lab) for t, lab in proc.segments if t < end]
            merged: list[StateRecord] = []
            for (t0, label), (t1, _) in zip(marks, marks[1:] + [(end, "")]):
                if t1 <= t0:
                    continue
                if merged and merged[-1].state == label and merged[-1].t1 == t0:
                    merged[-1] = _new_record(StateRecord, (proc.node, merged[-1].t0, t1, label))
                    continue
                merged.append(_new_record(StateRecord, (proc.node, t0, t1, label)))
            out.extend(merged)
        return out

    def trace(self, end: float) -> list[TraceRecord]:
        records: list[TraceRecord] = []
        records.extend(self.state_records(end))
        records.extend(self.comm_records)
        records.extend(self.flags)
        return records


class _BaselineTimes:
    """The failure-free pass's (post, block-point) wall times of ops, read
    from their messages when asked. A non-blocking op blocks where its wait
    began; None for an op that never posted, or whose wait never completed."""

    def __init__(self, pattern: CommPattern, baseline: dict[_Key, _Message]):
        self.pattern = pattern
        self.baseline = baseline

    def __call__(self, op: CommOp) -> tuple[float, float] | None:
        return self.exchange(op)[0]

    def exchange(
        self, op: CommOp
    ) -> tuple[tuple[float, float] | None, CommOp, tuple[float, float] | None]:
        """``op``'s times, its peer op and the peer's times, both read from
        their one message."""
        key, peer = self.pattern.message(op)
        msg = self.baseline[key]
        return self._side(op, key, msg), peer, self._side(peer, key, msg)

    def _side(self, op: CommOp, key: _Key, msg: _Message) -> tuple[float, float] | None:
        post = msg.post(op)
        if post is None:
            return None
        if op.mode is not OpMode.NONBLOCKING:
            return post, post
        sends = op.direction is Direction.SEND
        wait = _wait_item(op, key, _can_block(sends, self.pattern.buffered))
        if msg.completion(wait) is None:
            return None
        return post, msg.reached(wait)


def _failure_free_times(pattern: CommPattern, baseline: dict[_Key, _Message]) -> FailureFreeTimes:
    """The failure-free times of ``pattern``'s ops, read from ``baseline``."""
    return _BaselineTimes(pattern, baseline)


def _first_failure_wait(ref: _Engine, baseline: dict[_Key, _Message], node: int) -> _WaitLog | None:
    for log in ref.wait_logs[node]:
        if log.end is None:
            continue
        base_done = baseline[log.item.key].completion(log.item)
        if base_done is None or log.end > base_done:
            return log
    return None


def _phase_estimate(s: Scenario, ref: _Engine, log: _WaitLog) -> PhaseEstimate:
    fail = s.failure.time
    block, release = max(log.begin, fail), log.end  # a wait may begin before the failure
    assert release is not None
    proc = ref.procs[log.node]
    mid_ckpt = sum(
        max(0.0, min(end, block) - max(start, fail)) for start, end in proc.ckpt_spans
    )
    n_ckpt = sum(1 for start, _ in proc.ckpt_spans if fail <= start < release)
    return PhaseEstimate(
        node=log.node,
        t_comp_fmax=(block - fail) - mid_ckpt,
        window=release - fail,
        n_ckpt=n_ckpt,
        t_ckpt=s.ckpt.duration,
    )


def _allowed_freqs(s: Scenario, ref: _Engine, log: _WaitLog) -> set[float]:
    """Compute frequencies that cannot delay any op a live peer depends on."""
    fail = s.failure.time
    node = log.node
    allowed = set()
    impactful: list[tuple[float, float]] = []
    for item in ref.procs[node].items:
        op = item.op
        if item.is_wait or op.peer == s.failure.node:
            continue
        if op.direction is Direction.RECV and s.pattern.buffered:
            continue
        # only the failed node replays a post: a survivor's side holds its own
        msg = ref.messages[item.key]
        wall = msg.post(op)
        if wall is None or not (fail < wall < log.begin) or msg.transfer is None:
            continue
        impactful.append((wall, msg.transfer))
    for f in s.profile.freqs:
        if all(fail + f.beta * (wall - fail) <= transfer for wall, transfer in impactful):
            allowed.add(f.ghz)
    return allowed


@dataclass
class SimulationResult:
    report: SavingsReport
    trace: list[TraceRecord]
    makespan: float
    reference_makespan: float
    estimates: list[BlockEstimate]
    reference_waits: dict[int, _WaitLog]
    plans: list[NodePlan]
    scenario: Scenario


def _failure_free_pass(s: Scenario, programs: _Programs) -> tuple[_Engine, _Engine]:
    """Pass 1 run to the horizon, and a copy of its state at the failure
    instant, taken before the first event that follows the failure."""
    base = _Engine(s, programs, inject_failure=False)
    base.run(until=base.failure_at)
    snapshot = base.fork()
    base.run()
    return base, snapshot


def simulate_detailed(s: Scenario) -> SimulationResult:
    base, snapshot = _failure_free_pass(s, _programs(s.pattern))
    baseline = base.messages  # read-only from here on
    del base  # the later passes and the analysis need only its messages

    ref = snapshot.fork()
    ref.inject(baseline)
    ref.run()
    ref_makespan = ref.makespan()

    estimates = estimate_block_times(
        s.pattern, s.failure.node, s.failure.time, s.depth,
        schedule=_failure_free_times(s.pattern, baseline),
    )

    plans: list[NodePlan] = []
    plan_map: dict[int, tuple[NodePlan, _WaitLog]] = {}
    ref_waits: dict[int, _WaitLog] = {}
    for est in estimates:
        log = _first_failure_wait(ref, baseline, est.process)
        if log is None:
            continue
        ref_waits[est.process] = log
        phase = _phase_estimate(s, ref, log)
        allowed = _allowed_freqs(s, ref, log)
        plan = node_best_plan(phase, s.profile, s.pattern.wait_mode, allowed=allowed)
        plans.append(plan)
        plan_map[est.process] = (plan, log)

    if s.strategies_enabled and plan_map:
        final = snapshot
        final.inject(baseline, plan_map)
        final.run()
    else:
        final = ref
        del snapshot  # no pass 3

    end = max(final.makespan(), ref_makespan)
    report_rows = plans if s.strategies_enabled else []
    report = SavingsReport(
        rows=report_rows,
        total_j=sum(p.saving_j for p in report_rows),
        max_ghz=s.profile.f_max.ghz,
        min_ghz=s.profile.f_min.ghz,
    )
    return SimulationResult(
        report=report,
        trace=final.trace(end),
        makespan=final.makespan(),
        reference_makespan=ref_makespan,
        estimates=estimates,
        reference_waits=ref_waits,
        plans=plans,
        scenario=s,
    )


def run_simulation(s: Scenario) -> tuple[SavingsReport, list[TraceRecord]]:
    """Simulate a scenario and return the savings report and the trace."""
    result = simulate_detailed(s)
    return result.report, result.trace
