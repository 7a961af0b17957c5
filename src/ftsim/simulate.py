"""Simulation driver.

Three deterministic passes:

1. a failure-free run, giving every operation's undisturbed completion time
   (used to recognize failure-induced waits and to feed the block-time
   analysis with projected post times);
2. the reference run: the failure happens and nothing is done about it
   (defines the deadline, the phase durations and the no-intervention
   energy baseline);
3. the final run with the selected strategies applied, when enabled.

Strategy evaluation and application consume no virtual time. Applying a
strategy never moves a block release: a slowed compute phase must fit inside
the reference window and must not delay any operation a live peer depends
on, and sleeping nodes are woken exactly at the release known from the
reference run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cascade import BlockEstimate, estimate_block_times
from .energy import (
    FrequencyLevel,
    NodePlan,
    PhaseEstimate,
    WaitAction,
    WaitMode,
    node_best_plan,
)
from .fault import should_anticipate
from .kernel import EventKind, EventQueue
from .pattern import CommOp, CommPattern, Direction, OpMode, ProcStatus, ProcessState
from .report import CommRecord, FlagRecord, SavingsReport, StateRecord, TraceRecord
from .scenario import Scenario


_Key = tuple[tuple[int, int], int]  # ((sender, receiver), k): the k-th message on a channel


@dataclass(frozen=True)
class _Item:
    """One milestone in a process's program: an op post or its wait."""

    offset: float
    op: CommOp
    key: _Key
    is_wait: bool
    replay: bool = False


_Programs = tuple[list[list[_Item]], dict[_Key, OpMode]]


def _programs(pattern: CommPattern) -> _Programs:
    """Each process's milestones in execution order, and each message's mode:
    that of its op on the lower-numbered process. Built once per scenario and
    shared by all passes."""
    programs: list[list[_Item]] = []
    modes: dict[_Key, OpMode] = {}
    for ops in pattern.processes:
        items = []
        for op in ops:
            key = pattern.message_key(op)
            modes.setdefault(key, op.mode)
            items.append(_Item(op.post_time_offset, op, key, is_wait=False))
            if op.mode is OpMode.NONBLOCKING:
                items.append(_Item(op.wait_offset, op, key, is_wait=True))
        items.sort(key=lambda it: (it.offset, it.op.index, it.is_wait))
        programs.append(items)
    return programs, modes


@dataclass
class _Message:
    send_post: float | None = None
    recv_post: float | None = None
    transfer: float | None = None
    mode: OpMode = OpMode.BLOCKING
    blocked: dict[int, bool] = field(default_factory=dict)


@dataclass
class _WaitLog:
    node: int
    op_index: int
    is_wait: bool
    begin: float
    end: float | None = None


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
    ckpt_spans: list[tuple[float, float]] = field(default_factory=list)
    segments: list[tuple[float, str]] = field(default_factory=list)

    def mark(self, t: float, label: str) -> None:
        if self.segments and self.segments[-1][0] == t:
            self.segments[-1] = (t, label)
            return
        self.segments.append((t, label))


class _Engine:
    """One simulation pass over a scenario."""

    def __init__(
        self,
        s: Scenario,
        programs: _Programs,
        inject_failure: bool,
        baseline: dict | None = None,
        plans: dict[int, tuple[NodePlan, _WaitLog]] | None = None,
    ):
        self.s = s
        self.inject_failure = inject_failure
        self.baseline = baseline
        self.plans = plans or {}
        self.q = EventQueue()
        items, modes = programs
        self.messages = {key: _Message(mode=mode) for key, mode in modes.items()}
        self.procs = [_Proc(node, program, s.profile.f_max) for node, program in enumerate(items)]
        for proc in self.procs:
            proc.mark(0.0, "COMPUTE")
        self.completions: dict[tuple[int, int, bool], float] = {}
        self.posts: dict[tuple[int, int], tuple[float, float]] = {}
        self.wait_logs: dict[int, list[_WaitLog]] = {i: [] for i in range(s.nodes)}
        self.comm_records: list[CommRecord] = []
        self.flags: list[FlagRecord] = []
        self._minfreq_open: set[int] = set()
        self.wait_label = (
            "WAIT_ACTIVE" if s.pattern.wait_mode is WaitMode.ACTIVE else "WAIT_IDLE"
        )

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
        kind = EventKind.WAIT_ENTER if item.is_wait else (
            EventKind.POST_SEND if item.op.direction is Direction.SEND else EventKind.POST_RECV
        )
        proc.milestone_id = self.q.schedule(t, kind, proc.node, payload=item)

    def _cancel_milestone(self, proc: _Proc) -> None:
        if proc.milestone_id is not None:
            self.q.cancel(proc.milestone_id)
            proc.milestone_id = None

    def _sync_position(self, proc: _Proc, now: float) -> None:
        if proc.status is ProcStatus.COMPUTING:
            proc.position += (now - proc.resume_wall) / proc.freq.beta
            proc.resume_wall = now

    # -- main loop -----------------------------------------------------------

    def run(self) -> None:
        s = self.s
        for node in range(s.nodes):
            t = s.ckpt.offset(node)
            while t <= s.horizon:
                if t > 0:
                    self.q.schedule(t, EventKind.CKPT_BEGIN, node)
                t += s.ckpt.interval
        if self.inject_failure:
            self.q.schedule(s.failure.time, EventKind.FAILURE, s.failure.node)
        for proc in self.procs:
            self._schedule_milestone(proc)

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
        while len(self.q):
            nxt = self.q.peek_time()
            if nxt is None or nxt > s.horizon:
                break
            ev = self.q.advance()
            handlers[ev.kind](ev)

    # -- op handling -----------------------------------------------------------

    def _register_post(self, item: _Item, now: float) -> _Message:
        msg = self.messages[item.key]
        if item.op.direction is Direction.SEND:
            msg.send_post = now
        else:
            msg.recv_post = now
        if msg.send_post is not None and msg.recv_post is not None and msg.transfer is None:
            msg.transfer = max(msg.send_post, msg.recv_post)
            channel, _ = item.key
            self.comm_records.append(
                CommRecord(
                    src=channel[0],
                    dst=channel[1],
                    t_post=msg.send_post,
                    t_complete=msg.transfer,
                    mode="NB" if msg.mode is OpMode.NONBLOCKING else "B",
                )
            )
            for waiter in sorted(msg.blocked):
                if msg.blocked[waiter]:
                    self.q.schedule(msg.transfer, EventKind.COMM_COMPLETE, waiter, payload=msg)
        return msg

    def _must_block(self, item: _Item, msg: _Message) -> bool:
        if msg.transfer is not None:
            return False
        if self.s.pattern.buffered and item.op.direction is Direction.SEND:
            return False
        if item.op.mode is OpMode.NONBLOCKING and not item.is_wait:
            return False
        return True

    def _on_item(self, ev) -> None:
        proc = self.procs[ev.node]
        item: _Item = ev.payload
        if item.replay:
            self._register_post(item, ev.time)
            return
        now = ev.time
        proc.milestone_id = None
        proc.position = item.offset
        proc.resume_wall = now
        if item.is_wait:
            msg = self.messages[item.key]
        else:
            msg = self._register_post(item, now)
            self.posts[(proc.node, item.op.index)] = (now, now)
        self._finish_item(proc, item, msg, now)

    def _finish_item(self, proc: _Proc, item: _Item, msg: _Message, now: float) -> None:
        if self._must_block(item, msg):
            self.wait_logs[proc.node].append(
                _WaitLog(proc.node, item.op.index, item.is_wait, begin=now)
            )
            self._enter_wait(proc, item, msg, now)
            return
        if self._strategy_here(proc, item) is not None:
            # zero-length wait: the compute intervention still ends here
            self._end_compute_strategy(proc, now)
        self.completions[(proc.node, item.op.index, item.is_wait)] = now
        proc.cursor += 1
        self._schedule_milestone(proc)

    # -- waits and strategies --------------------------------------------------

    def _strategy_here(self, proc: _Proc, item: _Item) -> tuple[NodePlan, _WaitLog] | None:
        entry = self.plans.get(proc.node)
        if entry is None:
            return None
        plan, ref = entry
        if ref.op_index == item.op.index and ref.is_wait == item.is_wait:
            return entry
        return None

    def _enter_wait(self, proc: _Proc, item: _Item, msg: _Message, now: float) -> None:
        anticipated = self._wants_anticipation(proc, item, now)
        strategy = self._strategy_here(proc, item)
        if anticipated:
            duration = self.s.ckpt.duration * proc.freq.gamma
            proc.status = ProcStatus.CHECKPOINTING
            proc.blocked_item = item
            proc.mark(now, "CKPT")
            self.q.schedule(now + duration, EventKind.CKPT_END, proc.node, payload=item)
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
        msg.blocked[proc.node] = True
        proc.mark(now, self.wait_label)

    def _wants_anticipation(self, proc: _Proc, item: _Item, now: float) -> bool:
        if not self.s.ckpt.anticipation_enabled or self.baseline is None:
            return False
        if not should_anticipate(self.s.ckpt, now, proc.last_ckpt):
            return False
        base = self.baseline.get((proc.node, item.op.index, item.is_wait))
        return base is not None and base <= now

    def _on_complete(self, ev) -> None:
        proc = self.procs[ev.node]
        msg: _Message = ev.payload
        now = ev.time
        if proc.status is ProcStatus.SLEEPING:
            return  # the wakeup event resumes the process
        if proc.status is not ProcStatus.BLOCKED_WAIT or proc.blocked_item is None:
            return
        if self.messages[proc.blocked_item.key] is not msg:
            return
        item = proc.blocked_item
        self._resume_from_wait(proc, item, msg, now)

    def _resume_from_wait(self, proc: _Proc, item: _Item, msg: _Message, now: float) -> None:
        log = self.wait_logs[proc.node][-1]
        log.end = now
        self.completions[(proc.node, item.op.index, item.is_wait)] = now
        msg.blocked[proc.node] = False
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

    def _on_ckpt_begin(self, ev) -> None:
        proc = self.procs[ev.node]
        if proc.status is not ProcStatus.COMPUTING or proc.done_at is not None:
            return
        now = ev.time
        self._sync_position(proc, now)
        self._cancel_milestone(proc)
        proc.status = ProcStatus.CHECKPOINTING
        proc.mark(now, "CKPT")
        duration = self.s.ckpt.duration * proc.freq.gamma
        self.q.schedule(now + duration, EventKind.CKPT_END, proc.node)

    def _on_ckpt_end(self, ev) -> None:
        proc = self.procs[ev.node]
        if proc.status is not ProcStatus.CHECKPOINTING:
            return
        now = ev.time
        proc.last_ckpt = now
        proc.pos_at_ckpt = proc.position
        item: _Item | None = ev.payload
        if item is None:
            proc.ckpt_spans.append((now - self.s.ckpt.duration * proc.freq.gamma, now))
            proc.status = ProcStatus.COMPUTING
            proc.resume_wall = now
            proc.mark(now, "COMPUTE")
            self._schedule_milestone(proc)
            return
        # anticipated checkpoint taken at the head of a wait
        proc.ckpt_spans.append((self.wait_logs[proc.node][-1].begin, now))
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
        self._sync_position(proc, now)
        self._cancel_milestone(proc)
        if proc.blocked_item is not None:
            self.messages[proc.blocked_item.key].blocked[proc.node] = False
            if self.wait_logs[proc.node] and self.wait_logs[proc.node][-1].end is None:
                self.wait_logs[proc.node][-1].end = now
        proc.pos_at_failure = proc.position
        proc.pc_at_failure = proc.cursor
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
                    kind = (
                        EventKind.POST_SEND
                        if item.op.direction is Direction.SEND
                        else EventKind.POST_RECV
                    )
                    self.q.schedule(t, kind, proc.node, payload=replace(item, replay=True))
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
            if self._must_block(item, msg):
                self.wait_logs[proc.node].append(
                    _WaitLog(proc.node, item.op.index, item.is_wait, begin=now)
                )
                self._block_on(proc, item, msg, now)
                return
            self.completions[(proc.node, item.op.index, item.is_wait)] = now
            proc.cursor += 1
        self._schedule_milestone(proc)

    # -- strategy application ----------------------------------------------

    def _start_strategies(self, now: float) -> None:
        for node in sorted(self.plans):
            plan, _ = self.plans[node]
            proc = self.procs[node]
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

    def process_states(self) -> list[ProcessState]:
        return [
            ProcessState(
                node=p.node,
                status=p.status,
                pc=p.cursor,
                last_ckpt_time=p.last_ckpt,
            )
            for p in self.procs
        ]

    def state_records(self, end: float) -> list[StateRecord]:
        out = []
        for proc in self.procs:
            marks = [(t, lab) for t, lab in proc.segments if t < end]
            merged: list[StateRecord] = []
            for (t0, label), (t1, _) in zip(marks, marks[1:] + [(end, "")]):
                if t1 <= t0:
                    continue
                if merged and merged[-1].state == label and merged[-1].t1 == t0:
                    merged[-1] = StateRecord(proc.node, merged[-1].t0, t1, label)
                    continue
                merged.append(StateRecord(proc.node, t0, t1, label))
            out.extend(merged)
        return out

    def trace(self, end: float) -> list[TraceRecord]:
        records: list[TraceRecord] = []
        records.extend(self.state_records(end))
        records.extend(self.comm_records)
        records.extend(self.flags)
        return records


def _op_schedule(engine: _Engine) -> dict[tuple[int, int], tuple[float, float]]:
    """Projected (post, block-point) wall times per op from a failure-free run."""
    sched: dict[tuple[int, int], tuple[float, float]] = {}
    for (node, op_index), (post, _) in engine.posts.items():
        op = engine.s.pattern.processes[node][op_index]
        block_point = post
        if op.mode is OpMode.NONBLOCKING:
            wall = engine.completions.get((node, op_index, True))
            if wall is None:
                continue
            log = next(
                (w for w in engine.wait_logs[node] if w.op_index == op_index and w.is_wait),
                None,
            )
            block_point = log.begin if log is not None else wall
        sched[(node, op_index)] = (post, block_point)
    return sched


def _first_failure_wait(
    ref: _Engine, base: _Engine, node: int
) -> _WaitLog | None:
    for log in ref.wait_logs[node]:
        if log.end is None:
            continue
        key = (node, log.op_index, log.is_wait)
        base_done = base.completions.get(key)
        if base_done is None or log.end > base_done:
            return log
    return None


def _phase_estimate(s: Scenario, ref: _Engine, log: _WaitLog) -> PhaseEstimate:
    fail = s.failure.time
    block, release = log.begin, log.end
    assert release is not None
    proc = ref.procs[log.node]
    mid_ckpt = sum(
        max(0.0, min(end, block) - max(start, fail)) for start, end in proc.ckpt_spans
    )
    n_ckpt = sum(1 for start, _ in proc.ckpt_spans if fail <= start < release)
    t_comp_pure = (block - fail) - mid_ckpt
    window = release - fail
    wait_at = {}
    for f in s.profile.freqs:
        col = t_comp_pure * f.beta + n_ckpt * s.ckpt.duration * f.gamma
        wait_at[f.ghz] = max(0.0, window - col)
    return PhaseEstimate(
        node=log.node,
        t_comp_fmax=t_comp_pure,
        wait_at=wait_at,
        n_ckpt=n_ckpt,
        reference_end=release,
        phase_start=fail,
    )


def _allowed_freqs(s: Scenario, ref: _Engine, log: _WaitLog) -> set[float]:
    """Compute frequencies that cannot delay any op a live peer depends on."""
    fail = s.failure.time
    node = log.node
    allowed = set()
    impactful: list[tuple[float, float]] = []
    for op in s.pattern.processes[node]:
        posted = ref.posts.get((node, op.index))
        if posted is None:
            continue
        wall = posted[0]
        if not (fail < wall < log.begin):
            continue
        if op.peer == s.failure.node:
            continue
        if op.direction is Direction.RECV and s.pattern.buffered:
            continue
        msg = ref.messages[s.pattern.message_key(op)]
        if msg.transfer is None:
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
    final_states: list[ProcessState]
    reference_states: list[ProcessState]


def simulate_detailed(s: Scenario) -> SimulationResult:
    programs = _programs(s.pattern)
    base = _Engine(s, programs, inject_failure=False)
    base.run()
    baseline = dict(base.completions)

    ref = _Engine(s, programs, inject_failure=True, baseline=baseline)
    ref.run()
    ref_makespan = ref.makespan()

    estimates = estimate_block_times(
        s.pattern, s.failure.node, s.failure.time, s.depth, schedule=_op_schedule(base)
    )

    plans: list[NodePlan] = []
    plan_map: dict[int, tuple[NodePlan, _WaitLog]] = {}
    ref_waits: dict[int, _WaitLog] = {}
    for est in estimates:
        log = _first_failure_wait(ref, base, est.process)
        if log is None:
            continue
        ref_waits[est.process] = log
        phase = _phase_estimate(s, ref, log)
        allowed = _allowed_freqs(s, ref, log)
        plan = node_best_plan(phase, s.profile, s.pattern.wait_mode, allowed=allowed)
        plans.append(plan)
        plan_map[est.process] = (plan, log)

    if s.strategies_enabled and plan_map:
        final = _Engine(s, programs, inject_failure=True, baseline=baseline, plans=plan_map)
        final.run()
    else:
        final = ref

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
        final_states=final.process_states(),
        reference_states=ref.process_states(),
    )


def run_simulation(s: Scenario) -> tuple[SavingsReport, list[TraceRecord]]:
    """Simulate a scenario and return the savings report and the trace."""
    result = simulate_detailed(s)
    return result.report, result.trace
