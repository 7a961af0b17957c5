from copy import deepcopy
from dataclasses import replace
from pathlib import Path

import pytest

from ftsim import cascade, simulate
from ftsim.cascade import DepthConfig
from ftsim.energy import WaitMode
from ftsim.kernel import EventKind, EventQueue
from ftsim.pattern import CommPattern, OpMode
from ftsim.report import FlagRecord, StateRecord, render_report, write_trace
from ftsim.scenario import load_scenario, loads_scenario
from ftsim.simulate import (
    _Engine,
    _failure_free_pass,
    _failure_free_times,
    _Message,
    _programs,
    simulate_detailed,
)

from scengen import random_scenario
from test_output_pins import _SYSTEM, SHAPED

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"
ALL_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*.scn"))


def detailed(name, depth=None):
    s = load_scenario(FIXTURES / f"{name}.scn")
    if depth is not None:
        s = replace(s, depth=DepthConfig(depth))
    return simulate_detailed(s)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_trace_tiles_every_node(name):
    r = detailed(name)
    states = [t for t in r.trace if isinstance(t, StateRecord)]
    end = max(t.t1 for t in states)
    for node in range(r.scenario.nodes):
        mine = sorted((t for t in states if t.node == node), key=lambda t: t.t0)
        assert mine[0].t0 == 0.0
        assert mine[-1].t1 == end
        for a, b in zip(mine, mine[1:]):
            assert a.t1 == b.t0
        assert sum(t.t1 - t.t0 for t in mine) == pytest.approx(end, abs=1e-9)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_only_failed_node_recovers(name):
    r = detailed(name)
    for t in r.trace:
        if isinstance(t, StateRecord) and t.state in ("RESTART", "REEXEC"):
            assert t.node == r.scenario.failure.node


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_strategies_never_extend_fixture(name):
    r = detailed(name)
    assert r.makespan <= r.reference_makespan


def test_blocking_vs_nonblocking_compute_phase():
    blocking = detailed("scenario2_blocking")
    nonblocking = detailed("scenario2_nonblocking")
    assert nonblocking.plans[0].t_comp > blocking.plans[0].t_comp


def test_anticipation_never_worse():
    on = detailed("scenario6_anticipated")
    off = detailed("scenario6_plain")
    assert on.makespan <= off.makespan
    for plan_on, plan_off in zip(on.plans, off.plans):
        assert plan_on.t_wait == pytest.approx(plan_off.t_wait - 120.0)


def test_no_failure_makespan_insensitive_to_wait_mode_and_buffering():
    s = load_scenario(FIXTURES / "scenario1_short.scn")
    makespans = []
    for buffered in (False, True):
        for mode in (WaitMode.ACTIVE, WaitMode.IDLE):
            pattern = replace(s.pattern, buffered=buffered, wait_mode=mode)
            variant = replace(s, pattern=pattern)
            engine = _Engine(variant, _programs(variant.pattern), inject_failure=False)
            engine.run()
            makespans.append(engine.makespan())
    assert len(set(makespans)) == 1


def test_reference_run_when_strategies_disabled():
    s = load_scenario(FIXTURES / "scenario1_long.scn")
    r = simulate_detailed(replace(s, strategies_enabled=False))
    assert r.report.rows == []
    assert r.report.total_j == 0.0
    assert r.makespan == r.reference_makespan


def test_estimates_match_reference_trace_blocks():
    for name in ALL_FIXTURES:
        r = detailed(name)
        for est in r.estimates:
            assert est.process in r.reference_waits
            assert r.reference_waits[est.process].begin == est.block_time


def test_random_scenarios_deadline_safety_sample():
    for seed in range(40):
        r = simulate_detailed(random_scenario(seed))
        assert r.makespan <= r.reference_makespan, f"seed {seed}"


def test_random_scenario_estimates_sound():
    for seed in range(40):
        r = simulate_detailed(random_scenario(seed))
        for est in r.estimates:
            if est.process in r.reference_waits:
                assert r.reference_waits[est.process].begin == est.block_time, f"seed {seed}"


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fifo_completion_order_per_channel(name):
    from ftsim.report import CommRecord

    r = detailed(name)
    per_channel: dict[tuple[int, int], list[float]] = {}
    comms = [t for t in r.trace if isinstance(t, CommRecord)]
    for c in sorted(comms, key=lambda c: (c.t_post, c.t_complete)):
        per_channel.setdefault((c.src, c.dst), []).append(c.t_complete)
    for times in per_channel.values():
        assert times == sorted(times)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_strategy_flags_properly_nested(name):
    from ftsim.report import FlagRecord

    r = detailed(name)
    open_labels: dict[int, set] = {}
    flags = [t for t in r.trace if isinstance(t, FlagRecord)]
    for f in sorted(flags, key=lambda f: (f.t, f.edge == "BEGIN")):
        opened = open_labels.setdefault(f.node, set())
        if f.edge == "BEGIN":
            assert f.label not in opened
            opened.add(f.label)
        else:
            assert f.label in opened
            opened.remove(f.label)
    assert all(not labels for labels in open_labels.values())


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_report_row_consistency(name):
    from ftsim.report import report_rows

    r = detailed(name)
    for row in report_rows(r.report):
        save_j = float(row[6])
        rate = float(row[7])
        pct = float(row[8])
        tt_min = float(row[5])
        plan = next(p for p in r.report.rows if p.node == int(row[0]))
        assert abs(pct - 100.0 * plan.saving_j / (plan.saving_j + plan.ei_j)) <= 0.01
        if tt_min > 0:
            assert abs(rate - save_j / (tt_min * 60.0)) <= 0.01 * max(1.0, rate)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_survivors_never_roll_back(name, monkeypatch):
    resumed = []  # the passes that resume from pass 1 at the failure
    inject = _Engine.inject

    def spy(engine, *args):
        resumed.append(engine)
        inject(engine, *args)

    monkeypatch.setattr(_Engine, "inject", spy)
    r = detailed(name)
    ref, final = resumed[0], resumed[-1]  # pass 3 is skipped when nothing is planned
    assert len(resumed) in (1, 2)
    for ref_proc, final_proc in zip(ref.procs, final.procs):
        assert final_proc.cursor >= 0
        if ref_proc.node != r.scenario.failure.node:
            assert final_proc.cursor == ref_proc.cursor


def test_deterministic_trace_bytes(tmp_path):
    for name in ("scenario1_short", "scenario5", "scenario4_buffered"):
        payloads = []
        for run in range(2):
            r = detailed(name)
            out = tmp_path / f"{name}-{run}.trace"
            write_trace(r.trace, out)
            payloads.append(out.read_bytes())
            s = r.scenario
            payloads.append(
                render_report(r.report, "csv").encode()
            )
        assert payloads[0] == payloads[2]
        assert payloads[1] == payloads[3]


MIXED_MODES = """
[system]
freq = 2.8 ghz, 166 w, 1.0, 150 w, 1.0
freq = 1.2 ghz, 126 w, 2.1, 125 w, 1.4

[pattern]
nodes = 2
wait_mode = active
mpi_mode = blocking
op = 0 send 1 @ 10 s {send0}
op = 1 recv 0 @ 20 s {recv1}
op = 1 send 0 @ 30 s {send1}
op = 0 recv 1 @ 40 s {recv0}

[checkpoint]
interval = 1000 s
duration = 10 s
offset = 500 s

[failure]
node = 0
time = 100 s
restart = 5 s

[run]
horizon = 400 s
depth = 1
"""


@pytest.mark.parametrize(
    "waits, modes",
    [
        # node 0 blocks, node 1 does not: both messages are blocking
        (dict(send0="", recv1="wait @ 25 s", send1="wait @ 35 s", recv0=""), ("B", "B")),
        # node 0 does not block, node 1 does: both are non-blocking
        (dict(send0="wait @ 15 s", recv1="", send1="", recv0="wait @ 45 s"), ("NB", "NB")),
    ],
)
def test_mixed_mode_message_takes_the_lower_nodes_mode(waits, modes):
    from ftsim.report import CommRecord
    from ftsim.scenario import loads_scenario

    r = simulate_detailed(loads_scenario(MIXED_MODES.format(**waits)))
    comms = {(c.src, c.dst): c.mode for c in r.trace if isinstance(c, CommRecord)}
    assert (comms[(0, 1)], comms[(1, 0)]) == modes


def test_checkpoint_duration_uses_the_running_frequency_row():
    # 1.9 GHz shares beta 1.2 with 2.1 GHz but has the larger gamma 1.2; a
    # checkpoint taken while node 2 runs at 1.9 GHz lasts 120 s x 1.2
    from ftsim.scenario import loads_scenario

    text = (FIXTURES / "scenario3_active.scn").read_text()
    text = text.replace(
        "freq = 2.1 ghz, 148 w, 1.2, 142 w, 1.1\n",
        "freq = 2.1 ghz, 148 w, 1.2, 142 w, 1.1\nfreq = 1.9 ghz, 143 w, 1.2, 137 w, 1.2\n",
    )
    text = text.replace("offset = 2: 2200 s", "offset = 2: 618 s")
    r = simulate_detailed(loads_scenario(text))
    plan = next(p for p in r.plans if p.node == 2)
    assert plan.compute_action.ghz == 1.9
    ckpt = next(
        t for t in r.trace if isinstance(t, StateRecord) and t.node == 2 and t.state == "CKPT"
    )
    assert ckpt.t0 == 618.0
    assert ckpt.t1 - ckpt.t0 == pytest.approx(144.0)


def test_plans_charge_the_policy_checkpoint_duration():
    # each survivor takes one anticipated checkpoint at its block; with the
    # policy duration set to 60 s by hand, the selector must charge 60 s too
    s = load_scenario(FIXTURES / "scenario6_anticipated.scn")
    s = replace(s, ckpt=replace(s.ckpt, duration=60.0))
    r = simulate_detailed(s)
    fail = s.failure.time
    assert len(r.plans) == 3
    for plan in r.plans:
        log = r.reference_waits[plan.node]
        f = plan.compute_action
        assert plan.tt == pytest.approx(log.end - fail, abs=1e-9)
        assert plan.t_comp == pytest.approx((log.begin - fail) * f.beta + 60.0 * f.gamma)


TWO_LEVELS = """
[system]
freq = 2.8 ghz, 166 w, 1.0, 150 w, 1.0
freq = 1.2 ghz, 126 w, 2.1, 125 w, 1.4
"""


def test_node_that_fails_after_finishing_reexecutes():
    # node 1 is done at 100 s; failing at 850 s, it restarts for 50 s and
    # re-executes its 100 s of program before it is done again
    from ftsim.scenario import loads_scenario

    s = loads_scenario(TWO_LEVELS + """
[pattern]
nodes = 3
op = 0 send 1 @ 100 s
op = 1 recv 0 @ 100 s
op = 0 send 2 @ 900 s
op = 2 recv 0 @ 900 s

[checkpoint]
interval = 5000 s
duration = 10 s
offset = 4000 s

[failure]
node = 1
time = 850 s
restart = 50 s

[run]
horizon = 3000 s
depth = 1
""")
    r = simulate_detailed(s)
    assert r.makespan == r.reference_makespan == 1000.0
    states = [(t.t0, t.t1, t.state) for t in r.trace if isinstance(t, StateRecord) and t.node == 1]
    assert states[-2:] == [(850.0, 900.0, "RESTART"), (900.0, 1000.0, "REEXEC")]


def nonblocking_exchange_schedule(send0, recv1, horizon):
    """``_failure_free_times`` of a failure-free pass over one non-blocking
    message from node 0 to node 1, as {(process, op index): times} over the
    ops it has times for; each side is ``(post, wait)`` in seconds."""
    from ftsim.scenario import loads_scenario

    s = loads_scenario(TWO_LEVELS + f"""
[pattern]
nodes = 2
op = 0 send 1 @ {send0[0]} s wait @ {send0[1]} s
op = 1 recv 0 @ {recv1[0]} s wait @ {recv1[1]} s

[checkpoint]
interval = 1000 s
duration = 10 s
offset = 500 s

[failure]
node = 0
time = 30 s
restart = 5 s

[run]
horizon = {horizon} s
depth = 1
""")
    engine = _Engine(s, _programs(s.pattern), inject_failure=False)
    engine.run()
    times = _failure_free_times(s.pattern, engine.messages)
    found = {(o.proc, o.index): times(o) for ops in s.pattern.processes for o in ops}
    return {key: value for key, value in found.items() if value is not None}


def test_op_schedule_blocks_where_the_wait_began():
    # node 0 waits at 20 s for the transfer at 50 s
    sched = nonblocking_exchange_schedule((10, 20), (50, 60), horizon=400)
    assert sched == {(0, 0): (10.0, 20.0), (1, 0): (50.0, 60.0)}


def test_op_schedule_wait_reached_after_the_transfer():
    sched = nonblocking_exchange_schedule((10, 70), (50, 60), horizon=400)
    assert sched == {(0, 0): (10.0, 70.0), (1, 0): (50.0, 60.0)}


def test_op_schedule_leaves_out_a_wait_cut_by_the_horizon():
    # node 0 is still waiting at the horizon and node 1 never posts
    sched = nonblocking_exchange_schedule((10, 20), (50, 60), horizon=40)
    assert sched == {}


# -- passes 2 and 3 resume from pass 1 at the failure instant ----------------


def forked_scenarios():
    for name in ALL_FIXTURES:
        yield name, load_scenario(FIXTURES / f"{name}.scn")
    for name, build in SHAPED.items():
        yield name, build()
    for seed in range(4):
        yield f"seed{seed}", random_scenario(seed)


@pytest.mark.parametrize("name, s", list(forked_scenarios()))
def test_resumed_reference_pass_equals_a_run_from_t0(name, s):
    programs = _programs(s.pattern)
    base, snapshot = _failure_free_pass(s, programs)
    ref = snapshot.fork()
    ref.inject(base.messages)
    ref.run()
    scratch = _Engine(s, programs, inject_failure=False)
    scratch.inject(base.messages)  # the failure scheduled at t = 0
    scratch.run()
    end = max(ref.makespan(), scratch.makespan())
    assert ref.makespan() == scratch.makespan()
    assert ref.trace(end) == scratch.trace(end)
    assert ref.messages == scratch.messages
    assert ref.wait_logs == scratch.wait_logs


def engine_state(engine):
    return deepcopy({k: v for k, v in vars(engine).items() if k != "s"})


@pytest.mark.parametrize("name", ["halo_chain_8", "master_worker_6", "horizon_cut"])
def test_running_pass_2_leaves_the_snapshot_unchanged(name):
    s = SHAPED[name]()
    programs = _programs(s.pattern)
    base, snapshot = _failure_free_pass(s, programs)
    fresh = _Engine(s, programs, inject_failure=False)
    fresh.run(until=fresh.failure_at)
    assert engine_state(snapshot) == engine_state(fresh)  # pass 1 went on without it
    before = engine_state(snapshot)
    ref = snapshot.fork()
    ref.inject(base.messages)
    ref.run()
    assert ref.q.clock > s.failure.time
    assert engine_state(snapshot) == before


TIES_AT_FAILURE = TWO_LEVELS + """
[pattern]
nodes = 3
op = 0 send 1 @ 50 s
op = 1 recv 0 @ 50 s
op = 2 send 1 @ 100 s
op = 1 recv 2 @ 100 s
op = 0 recv 2 @ 150 s
op = 2 send 0 @ 150 s

[checkpoint]
interval = 1000 s
duration = 20 s
offset = 0: 80 s
offset = 1: 100 s
offset = 2: 500 s

[failure]
node = 0
time = 100 s
restart = 5 s

[run]
horizon = 2000 s
depth = 1
"""


def test_events_at_the_failure_instant_keep_their_order(monkeypatch):
    # at 100 s: node 1's checkpoint trigger, scheduled at t = 0 before the
    # failure's place, then the failure, node 2's send, scheduled at t = 0
    # after it, and node 0's checkpoint end, scheduled at 80 s
    s = loads_scenario(TIES_AT_FAILURE)
    popped = []
    advance = EventQueue.advance

    def spy(queue, *args):
        ev = advance(queue, *args)
        if ev is not None:
            popped.append((queue, (ev.time, ev.seq, ev.kind, ev.node)))
        return ev

    monkeypatch.setattr(EventQueue, "advance", spy)
    programs = _programs(s.pattern)
    scratch = _Engine(s, programs, inject_failure=True)
    scratch.run()
    base = _Engine(s, programs, inject_failure=False)
    base.run(until=base.failure_at)
    ref = base.fork()
    ref.inject()
    ref.run()

    def events(queue):
        return [ev for q, ev in popped if q is queue]

    assert events(base.q) + events(ref.q) == events(scratch.q)
    at_failure = [(kind, node) for t, _, kind, node in events(scratch.q) if t == 100.0]
    assert at_failure == [
        (EventKind.CKPT_BEGIN, 1),
        (EventKind.FAILURE, 0),
        (EventKind.POST_SEND, 2),
        (EventKind.CKPT_END, 0),
    ]


def blocked_workers_scenario():
    """A blocking master-worker whose master fails at 495 s, while all four
    workers are blocked sending it their stage-2 results."""
    workers, stages, stage, cycle = 4, 4, 200.0, 81.0
    lines = [_SYSTEM, "[pattern]", f"nodes = {workers + 1}", "mpi_mode = blocking",
             f"interval = {stage} s", f"repetition = {stage} s"]
    last = stage * (stages - 1)
    for k in range(1, workers + 1):
        send, recv = 2.0 * k, 100.0 + 2.0 * k
        lines.append(f"op = 0 send {k} @ {send} s every {stage} s until {last + send} s")
        lines.append(f"op = 0 recv {k} @ {recv} s every {stage} s until {last + recv} s")
        lines.append(f"op = {k} recv 0 @ 1 s every {cycle} s until {1 + cycle * (stages - 1)} s")
        lines.append(f"op = {k} send 0 @ {cycle} s every {cycle} s until {cycle * stages} s")
    lines += ["[checkpoint]", "interval = 1500 s", "duration = 40 s", "offset = 1200 s",
              "[failure]", "node = 0", "time = 495 s", "restart = 60 s",
              "[run]", "horizon = 5000 s", "depth = 1"]
    return loads_scenario("\n".join(lines), "blocked_workers")


def test_workers_blocked_at_the_failure_never_extend_the_run():
    s = blocked_workers_scenario()
    r = simulate_detailed(s)
    fail = s.failure.time
    assert sorted(p.node for p in r.plans) == [1, 2, 3, 4]
    assert all(r.reference_waits[p.node].begin < fail for p in r.plans)
    assert r.makespan <= r.reference_makespan
    flags = [f for f in r.trace if isinstance(f, FlagRecord)]
    assert flags and all(f.t >= fail for f in flags)
    for f in flags:
        if f.edge == "BEGIN" and f.label.startswith("FREQ_"):
            assert any(g.edge == "END" and (g.node, g.label) == (f.node, f.label) for g in flags)


SAME_INSTANT_WAIT = TWO_LEVELS + """
[pattern]
nodes = 3
op = 0 send 1 @ 200 s
op = 1 recv 0 @ 200 s
op = 0 recv 2 @ 600 s
op = 2 send 0 @ 600 s

[checkpoint]
interval = 1000 s
duration = 10 s
anticipation = on
alpha = 0.2
offset = 900 s

[failure]
node = 2
time = 300 s
restart = 50 s

[run]
horizon = 3000 s
depth = 1
"""


def test_no_checkpoint_is_anticipated_before_the_failure():
    # node 0 blocks on its send at 200 s and the receive lands at 200 s, so
    # the failure-free pass completes that wait the instant it began
    s = loads_scenario(SAME_INSTANT_WAIT)
    r = simulate_detailed(s)
    early = [
        t for t in r.trace
        if isinstance(t, StateRecord) and t.state == "CKPT" and t.t0 < s.failure.time
    ]
    assert early == []
    assert r.makespan <= r.reference_makespan


# -- the analysis reads failure-free times from pass 1 on demand -------------


def op_schedule_table(engine):
    """Projected (post, block-point) wall times per posted op, as a table
    built over the whole pattern: the reference for the on-demand lookup."""
    sched = {}
    for proc in engine.procs:
        for item in proc.items:
            op = item.op
            if op.mode is OpMode.NONBLOCKING and not item.is_wait:
                continue  # its wait gives both times
            msg = engine.messages[item.key]
            post = msg.post(op)
            if post is None or (item.is_wait and msg.completion(item) is None):
                continue
            sched[(proc.node, op.index)] = (post, msg.reached(item))
    return sched


@pytest.mark.parametrize("cut", [False, True])
@pytest.mark.parametrize("name, s", list(forked_scenarios()))
def test_failure_free_times_equal_the_per_op_table(name, s, cut):
    if cut:  # ops left unposted or waiting at the horizon have no times
        s = replace(s, horizon=s.failure.time + (s.horizon - s.failure.time) / 4)
    base, _ = _failure_free_pass(s, _programs(s.pattern))
    table = op_schedule_table(base)
    times = _failure_free_times(s.pattern, base.messages)
    for ops in s.pattern.processes:
        for o in ops:
            assert times(o) == table.get((o.proc, o.index)), (name, o)


def test_set_up_work_follows_the_analysed_pairs(monkeypatch):
    """Validation makes no per-op matching call, and neither building the
    failure-free times nor the analysis reads the pass-1 message of an op
    outside the process pairs the analysis examined."""
    matches = []
    matching_op = CommPattern.matching_op

    def counted_matching_op(pattern, op):
        matches.append(op)
        return matching_op(pattern, op)

    monkeypatch.setattr(CommPattern, "matching_op", counted_matching_op)
    s = SHAPED["halo_chain_8"]()  # loads and validates
    s.validate()
    assert matches == []

    pairs = set()
    candidate_ops = cascade._candidate_ops

    def spied_candidate_ops(pattern, child, parent, *args):
        pairs.add(frozenset((child, parent)))
        return candidate_ops(pattern, child, parent, *args)

    reading = False
    read = []
    post = _Message.post

    def spied_post(msg, op):
        if reading:
            read.append(op)
        return post(msg, op)

    def reads_times(fn):
        def spied(*args, **kwargs):
            nonlocal reading
            reading = True
            try:
                return fn(*args, **kwargs)
            finally:
                reading = False

        return spied

    monkeypatch.setattr(cascade, "_candidate_ops", spied_candidate_ops)
    monkeypatch.setattr(_Message, "post", spied_post)
    monkeypatch.setattr(simulate, "_failure_free_times", reads_times(simulate._failure_free_times))
    monkeypatch.setattr(simulate, "estimate_block_times", reads_times(simulate.estimate_block_times))
    simulate_detailed(s)
    assert read
    assert {frozenset((o.proc, o.peer)) for o in read} <= pairs
    assert len(set(read)) < sum(len(ops) for ops in s.pattern.processes)


# -- programs and transfers ----------------------------------------------------


@pytest.mark.parametrize("sender, receiver", [(0, 1), (1, 0)])
def test_blocked_sides_complete_in_ascending_node_order(sender, receiver):
    """A run never has both sides of a message blocked when it is
    transferred; were it so, the lower node's completion is queued first."""
    s = loads_scenario(TWO_LEVELS + f"""
[pattern]
nodes = 2
op = {sender} send {receiver} @ 10 s
op = {receiver} recv {sender} @ 10 s

[checkpoint]
interval = 1000 s
duration = 10 s

[failure]
node = 0
time = 30 s
restart = 5 s

[run]
horizon = 400 s
depth = 1
""")
    engine = _Engine(s, _programs(s.pattern), inject_failure=False)
    send, recv = engine.procs[sender].items[0], engine.procs[receiver].items[0]
    assert send.key is recv.key == ((sender, receiver), 0)
    msg = engine.messages[send.key]
    msg.send_blocked = msg.recv_blocked = True
    engine._register_post(send, 5.0)
    engine._register_post(recv, 6.0)
    completions = [ev for ev in sorted(engine.q._heap) if ev.kind is EventKind.COMM_COMPLETE]
    assert [(ev.time, ev.node) for ev in completions] == [(6.0, 0), (6.0, 1)]


def test_programs_share_message_keys_and_sort_by_offset():
    s = SHAPED["halo_chain_8"]()
    programs, modes = _programs(s.pattern)
    keys = {}
    for node, items in enumerate(programs):
        assert items == sorted(items, key=lambda it: (it.offset, it.op.index, it.is_wait))
        for item in items:
            assert item.op.proc == node and item.index == item.op.index
            assert item.key == s.pattern.message_key(item.op)
            assert keys.setdefault(item.key, item.key) is item.key
    assert set(keys) == set(modes)
