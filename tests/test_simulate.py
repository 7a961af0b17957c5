import hashlib
import tracemalloc
import weakref
from array import array
from copy import deepcopy
from dataclasses import fields, replace
from itertools import pairwise
from math import isnan
from pathlib import Path

import pytest

from ftsim import cascade, cli, simulate
from ftsim.cascade import DepthConfig
from ftsim.energy import WaitMode, ghz_name
from ftsim.kernel import EventQueue
from ftsim.pattern import KIND_NONBLOCKING, KIND_RECV, CommPattern, can_suspend
from ftsim.report import (
    CommRecord,
    FlagRecord,
    StateRecord,
    TraceRecord,
    render_report,
    write_trace,
)
from ftsim.scenario import load_scenario, loads_scenario
from ftsim.simulate import (
    _FIRST,
    _LABELS,
    _Engine,
    _failure_free_pass,
    _failure_free_times,
    _programs,
    simulate_detailed,
)

from families import family_scenario
from scengen import random_scenario
from test_fault import trigger_times
from test_output_pins import _SYSTEM, SHAPED, output_digest, pass_counts
from test_pattern import reference_matching_op

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
            engine = _Engine(variant, _programs(variant.pattern))
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
    """Every survivor ends pass 3 at the cursor it ends pass 2 at. Pass 3
    runs to its end here: one that rejoins pass 2 stops at the rejoin key
    and builds its result from pass 2's tail, not from its own cursors."""
    resumed = []  # the passes that resume from pass 1 at the failure
    inject = _Engine.inject

    def spy(engine, *args, **kwargs):
        resumed.append(engine)
        inject(engine, *args, **kwargs)

    monkeypatch.setattr(_Engine, "inject", spy)
    monkeypatch.setattr(_Engine, "handover", no_rejoin)
    r = detailed(name)
    ref, final = resumed[0], resumed[-1]  # pass 3 is skipped when nothing is planned
    assert len(resumed) in (1, 2)
    for ref_proc, final_proc in zip(ref.procs, final.procs):
        assert final_proc.cursor >= 0
        if ref_proc.node != r.scenario.failure.node:
            assert final_proc.cursor == ref_proc.cursor


def trace_order_scenarios(source):
    if source == "fixtures":
        return [(name, load_scenario(FIXTURES / f"{name}.scn")) for name in ALL_FIXTURES]
    if source == "scengen":
        return [(seed, random_scenario(seed)) for seed in range(200)]
    # every 8th family, and seed 38, whose planned sleep did not fit before
    # its release and is not taken
    return [(seed, family_scenario(seed)) for seed in (*range(0, 400, 8), 38)]


def _record_key(r: TraceRecord) -> tuple:
    """Trace order: by begin time, then node, then kind, then end time."""
    if isinstance(r, StateRecord):
        return (r.t0, r.node, "S", r.t1)
    if isinstance(r, CommRecord):
        return (r.t_post, r.src, "C", r.t_complete)
    return (r.t, r.node, "F", 0.0)


@pytest.mark.parametrize("source", ["fixtures", "scengen", "families"])
def test_a_run_trace_iterates_in_trace_order(source):
    for name, s in trace_order_scenarios(source):
        records = list(simulate_detailed(s).trace)
        assert records == sorted(records, key=_record_key), name


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


def test_a_level_is_named_exactly_in_flags_and_reports():
    """A level whose 6-digit name would round is named by its exact value:
    the FREQ flag and the report label read back as the level itself."""
    text = (FIXTURES / "scenario3_active.scn").read_text()
    text = text.replace(
        "freq = 2.1 ghz, 148 w, 1.2, 142 w, 1.1\nfreq = 1.7 ghz, 139 w, 1.5, 131 w, 1.2\n",
        "freq = 1.2345678 ghz, 148 w, 1.2, 142 w, 1.1\n",
    )
    r = simulate_detailed(loads_scenario(text))
    assert {p.compute_action.ghz for p in r.plans} == {1.2345678}
    flags = {f.label for f in r.trace if isinstance(f, FlagRecord) and f.label.startswith("FREQ_")}
    assert [float(label.removeprefix("FREQ_")) for label in flags] == [1.2345678]
    rows = render_report(r.report, "csv").splitlines()[1:-1]
    assert rows and {float(row.split(",")[1].removesuffix(" GHz")) for row in rows} == {1.2345678}


# sha256 of the S and C lines of ``test_a_slower_level_of_beta_1_is_applied``'s
# trace: those of the run that never applied the level, as one as fast as
# f_max moves no state and no transfer
BETA_1_STATES_AND_COMMS = "e6c9a541af1562d99058708124d2a9496da9e632a70686b295344df3dae08a77"


def test_a_slower_level_of_beta_1_is_applied(tmp_path):
    """A level below f_max is applied whatever its beta. With its 2.1 GHz row
    as fast as f_max and cheaper, ``scenario7_long`` plans nodes 1-3 at
    2.1 GHz: each begins it at the failure and ends it at its planned wait,
    where its sleep begins, and no S or C line moves."""
    text = (FIXTURES / "scenario7_long.scn").read_text()
    slow = "freq = 2.1 ghz, 148 w, 1.2, 142 w, 1.1\n"
    assert slow in text
    s = loads_scenario(text.replace(slow, "freq = 2.1 ghz, 120 w, 1.0, 142 w, 1.0\n"))
    r = simulate_detailed(s)
    assert {p.node: p.compute_action for p in r.plans} == dict.fromkeys((1, 2, 3), s.profile.freqs[1])
    flags = [(f.node, f.t, f.edge) for f in r.trace if isinstance(f, FlagRecord) and f.label == "FREQ_2.1"]
    fail = s.failure.time
    assert fail == 1194.6
    assert flags == [
        (1, fail, "BEGIN"), (2, fail, "BEGIN"), (3, fail, "BEGIN"),
        (1, 1200.0, "END"), (2, 1200.2, "END"), (3, 1200.4, "END"),
    ]
    sleeps = [(f.node, f.t) for f in r.trace if isinstance(f, FlagRecord) and f.label == "SLEEP"]
    assert sleeps[:3] == [(node, t) for node, t, edge in flags if edge == "END"]
    assert [(n, r.reference_waits[n].begin) for n in (1, 2, 3)] == sleeps[:3]
    path = tmp_path / "run.trace"
    write_trace(r.trace, path)
    lines = [line for line in path.read_bytes().splitlines(keepends=True) if line[:2] in (b"S ", b"C ")]
    assert hashlib.sha256(b"".join(lines)).hexdigest() == BETA_1_STATES_AND_COMMS


@pytest.mark.parametrize("source", [*ALL_FIXTURES, *range(0, 400, 8)])
def test_a_planned_level_below_f_max_is_flagged(source):
    """Each ``BEGIN FREQ_x`` flag names its node's planned level, which is not
    f_max; and a node planned below f_max that computes at the failure gets
    one, at the failure."""
    if isinstance(source, str):
        s = load_scenario(FIXTURES / f"{source}.scn")
    else:
        s = family_scenario(source)
    r = simulate_detailed(s)
    f_max, fail = s.profile.f_max, s.failure.time
    planned = {p.node: p.compute_action for p in r.plans} if s.strategies_enabled else {}
    begun, computing = {}, set()
    for record in r.trace:
        if isinstance(record, FlagRecord) and record.label.startswith("FREQ_") and record.edge == "BEGIN":
            level = planned[record.node]
            assert level is not f_max and record.label == f"FREQ_{ghz_name(level.ghz)}"
            assert record.node not in begun
            begun[record.node] = record.t
        elif isinstance(record, StateRecord) and record.state == "COMPUTE" and record.t0 < fail < record.t1:
            computing.add(record.node)
    slowed = {node for node, level in planned.items() if level is not f_max}
    assert slowed & computing <= begun.keys()
    assert set(begun.values()) <= {fail}


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


def test_node_that_fails_after_finishing_needs_no_checkpoint_trigger():
    # node 1 checkpoints at its 50 s trigger and is done at 110 s, so its
    # timer stops; failing at 800 s, it restarts for 20 s, re-executes the
    # 50 s since that checkpoint and is done again, never computing (a
    # running timer would fire at 850 s, during the re-execution, and skip)
    s = loads_scenario(TWO_LEVELS + """
[pattern]
nodes = 3
op = 0 send 1 @ 100 s
op = 1 recv 0 @ 100 s
op = 0 send 2 @ 900 s
op = 2 recv 0 @ 900 s

[checkpoint]
interval = 200 s
duration = 10 s
offset = 0: 4000 s
offset = 1: 50 s
offset = 2: 4000 s

[failure]
node = 1
time = 800 s
restart = 20 s

[run]
horizon = 3000 s
depth = 1
""")
    r = simulate_detailed(s)
    assert r.makespan == r.reference_makespan == 910.0
    states = [(t.t0, t.t1, t.state) for t in r.trace if isinstance(t, StateRecord) and t.node == 1]
    assert states == [
        (0.0, 50.0, "COMPUTE"), (50.0, 60.0, "CKPT"), (60.0, 110.0, "COMPUTE"),
        (110.0, 800.0, "WAIT_IDLE"), (800.0, 820.0, "RESTART"), (820.0, 870.0, "REEXEC"),
        (870.0, 910.0, "WAIT_IDLE"),
    ]


def nonblocking_exchange_schedule(send0, recv1, horizon):
    """``_failure_free_times`` of a failure-free pass over one non-blocking
    message from node 0 to node 1, as {(process, op index): exchange}; each
    side is ``(post, wait)`` in offset seconds. Both nodes checkpoint over
    [5 s, 15 s], so a side's pass-1 wall times are 10 s after its offsets."""
    from ftsim.scenario import loads_scenario

    s = loads_scenario(TWO_LEVELS + f"""
[pattern]
nodes = 2
op = 0 send 1 @ {send0[0]} s wait @ {send0[1]} s
op = 1 recv 0 @ {recv1[0]} s wait @ {recv1[1]} s

[checkpoint]
interval = 1000 s
duration = 10 s
offset = 5 s

[failure]
node = 0
time = 30 s
restart = 5 s

[run]
horizon = {horizon} s
depth = 1
""")
    programs = _programs(s.pattern)
    engine = _Engine(s, programs)
    engine.run()
    exchange = _failure_free_times(s.pattern, programs.msgs, engine.messages)
    return {
        (proc, index): exchange(proc, index)
        for proc, ops in enumerate(s.pattern.processes)
        for index in range(len(ops))
    }


def test_op_schedule_blocks_where_the_wait_began():
    # node 0 waits at 30 s for the transfer at 60 s
    sched = nonblocking_exchange_schedule((10, 20), (50, 60), horizon=400)
    assert sched == {(0, 0): (20.0, 30.0, 60.0), (1, 0): (60.0, 70.0, 20.0)}


def test_op_schedule_wait_reached_after_the_transfer():
    sched = nonblocking_exchange_schedule((10, 70), (50, 60), horizon=400)
    assert sched == {(0, 0): (20.0, 80.0, 60.0), (1, 0): (60.0, 70.0, 20.0)}


def test_op_schedule_leaves_out_a_wait_cut_by_the_horizon():
    # node 0 posts at 20 s and is still waiting at the 40 s horizon; node 1
    # never posts. Both sides' own times fall back to their offsets, but node
    # 1's op sees the 20 s post pass 1 recorded for node 0.
    sched = nonblocking_exchange_schedule((10, 20), (50, 60), horizon=40)
    assert sched == {(0, 0): (10.0, 20.0, 50.0), (1, 0): (50.0, 60.0, 20.0)}


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
    scratch = _Engine(s, programs)
    scratch.inject(base.messages)  # the failure scheduled at t = 0
    scratch.run()
    end = max(ref.makespan(), scratch.makespan())
    assert ref.makespan() == scratch.makespan()
    assert list(ref.trace(end)) == list(scratch.trace(end))
    assert table_bytes(ref.messages) == table_bytes(scratch.messages)
    assert ref.delayed == scratch.delayed


def table_bytes(table):
    """The message columns that every pass holds, the posts and the
    transfers, as bytes (a failure-free pass also records its waits, which a
    fork does not copy, so a ``None`` ``wait`` is skipped): NaN, "not yet",
    is unequal to itself as a float, so equal tables compare unequal as
    arrays."""
    return None if table is None else [table.post.tobytes(), table.transfer.tobytes()]


def engine_state(engine):
    state = deepcopy({k: v for k, v in vars(engine).items() if k != "s"})
    state["messages"], state["baseline"] = table_bytes(engine.messages), table_bytes(engine.baseline)
    return state


@pytest.mark.parametrize("name", ["halo_chain_8", "master_worker_6", "horizon_cut"])
def test_running_pass_2_leaves_the_snapshot_unchanged(name):
    s = SHAPED[name]()
    programs = _programs(s.pattern)
    base, snapshot = _failure_free_pass(s, programs)
    fresh = _Engine(s, programs)
    fresh.run(until=fresh.failure_at)
    assert engine_state(snapshot) == engine_state(fresh)  # pass 1 went on without it
    before = engine_state(snapshot)
    ref = snapshot.fork()
    ref.inject(base.messages)
    ref.run()
    assert ref.q.clock > s.failure.time
    assert engine_state(snapshot) == before


@pytest.mark.parametrize("name", ["halo_chain_8", "master_worker_6"])
def test_a_fork_shares_no_message_column(name):
    s = SHAPED[name]()
    programs = _programs(s.pattern)
    _, snapshot = _failure_free_pass(s, programs)
    n = len(programs.modes)
    twin = snapshot.fork()
    before = engine_state(snapshot)
    assert [f.name for f in fields(twin.messages)] == ["post", "transfer", "wait"]
    assert snapshot.messages.wait is None and twin.messages.wait is None
    for column, length in (("post", 2 * n), ("transfer", n)):  # one post per side
        mine, theirs = getattr(snapshot.messages, column), getattr(twin.messages, column)
        assert type(mine) is array and type(theirs) is array
        assert len(mine) == len(theirs) == length
        assert theirs is not mine
        theirs[:] = array("d", [-1.0]) * length
    assert engine_state(snapshot) == before


@pytest.mark.parametrize("strategies", [True, False])
def test_only_the_failure_free_pass_records_waits(strategies, monkeypatch):
    """Pass 1's table also records when each side reached its non-blocking
    wait, which the later passes and the analysis read through the
    baseline; a forked pass's table holds only the posts and the transfer."""
    s = replace(SHAPED["halo_chain_8"](), strategies_enabled=strategies)
    tables = []
    run = _Engine.run

    def spied_run(engine, *args, **kwargs):
        run(engine, *args, **kwargs)
        tables.append((engine.baseline is not None, engine.messages))

    monkeypatch.setattr(_Engine, "run", spied_run)
    simulate_detailed(s)
    assert [failed for failed, _ in tables] == [False, False, True] + [True] * strategies
    n = len(_programs(s.pattern).modes)
    for failed, table in tables:
        assert [f.name for f in fields(table)] == ["post", "transfer", "wait"]
        assert (len(table.post), len(table.transfer)) == (2 * n, n)
        assert (table.wait is None) if failed else (len(table.wait) == 2 * n)
    baseline = tables[0][1]
    # a non-blocking pattern: both sides reach waits
    assert any(not isnan(t) for t in baseline.wait[0::2])
    assert any(not isnan(t) for t in baseline.wait[1::2])


@pytest.mark.parametrize("name, strategies", [
    ("halo_chain_8", True),
    ("master_worker_6", True),
    ("halo_chain_8", False),
])
def test_each_pass_is_freed_after_its_last_read(name, strategies, monkeypatch):
    """When pass 3 starts, the engine running it is the only one alive:
    pass 1 went once its messages were taken, pass 2 once the plans were
    made. Without strategies no pass 3 needs the snapshot, so pass 2 runs on
    it, not on a fork, and is then the only engine alive. The final pass
    builds its trace without a baseline, so pass 1's messages are gone by
    then too."""
    s = replace(SHAPED[name](), strategies_enabled=strategies)
    engines = []
    init, fork, run, trace = _Engine.__init__, _Engine.fork, _Engine.run, _Engine.trace

    def alive(engine):
        """Whether ``engine`` is the only engine alive."""
        live = [e for e in (r() for r in engines) if e is not None]
        return len(live) == 1 and live[0] is engine

    def spied_init(engine, *args, **kwargs):
        init(engine, *args, **kwargs)
        engines.append(weakref.ref(engine))

    def spied_fork(engine):
        twin = fork(engine)
        engines.append(weakref.ref(twin))
        return twin

    at_pass_2, at_pass_3 = [], []

    def spied_run(engine, *args, **kwargs):
        if engine.plans:  # only pass 3 runs with plans
            at_pass_3.append(alive(engine))
        elif engine.baseline is not None:  # pass 2, the other pass with a baseline
            at_pass_2.append(alive(engine))
        return run(engine, *args, **kwargs)

    at_trace = []

    def spied_trace(engine, end):
        at_trace.append((alive(engine), engine.baseline is None))
        return trace(engine, end)

    monkeypatch.setattr(_Engine, "__init__", spied_init)
    monkeypatch.setattr(_Engine, "fork", spied_fork)
    monkeypatch.setattr(_Engine, "run", spied_run)
    monkeypatch.setattr(_Engine, "trace", spied_trace)
    r = simulate_detailed(s)
    # pass 1, its snapshot and, with strategies, the fork pass 2 runs on
    assert len(engines) == (3 if strategies else 2)
    assert at_pass_2 == [not strategies]
    assert at_pass_3 == ([True] if strategies else [])
    assert r.plans
    assert at_trace == [(True, True)]


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
    # at 100 s: node 1's checkpoint trigger, as triggers go first, then the
    # failure, then in the order they were scheduled node 2's send post, at
    # t = 0, and node 0's checkpoint end, at 80 s. The failure takes a queue
    # number, so the forked pass numbers later events one apart from the run
    # from t = 0: their order is compared, not their numbers
    s = loads_scenario(TIES_AT_FAILURE)
    popped = []
    advance = EventQueue.advance

    def spy(queue, *args):
        ev = advance(queue, *args)
        if ev is not None:
            popped.append((queue, (ev.time, ev.band, ev.kind, ev.node, ev.payload)))
        return ev

    monkeypatch.setattr(EventQueue, "advance", spy)
    programs = _programs(s.pattern)
    scratch = _Engine(s, programs)
    scratch.inject()  # the failure scheduled at t = 0
    scratch.run()
    base = _Engine(s, programs)
    base.run(until=base.failure_at)
    ref = base.fork()
    ref.inject()
    ref.run()

    def events(queue):
        return [ev for q, ev in popped if q is queue]

    assert events(base.q) + events(ref.q) == events(scratch.q)
    at_failure = [ev for ev in events(scratch.q) if ev[0] == 100.0]
    assert [(kind, node) for _, _, kind, node, _ in at_failure] == [
        (_Engine._on_ckpt_begin, 1),
        (_Engine._on_failure, 0),
        (_Engine._on_milestone, 2),
        (_Engine._on_ckpt_end, 0),
    ]
    # node 2's milestone is the post of a send: its code, 2·op index, is even
    position = at_failure[2][4]
    code = programs.order[2][position]
    assert position >= 0 and code % 2 == 0
    assert not s.pattern.processes[2].kinds[code >> 1] & KIND_RECV


TRIGGERS_AT_ONE_INSTANT = TWO_LEVELS + """
[pattern]
nodes = 2
op = 0 send 1 @ 400 s
op = 1 recv 0 @ 400 s

[checkpoint]
interval = 100 s
duration = 10 s
offset = 0: 50 s
offset = 1: 150 s

[failure]
node = 0
time = 300 s
restart = 5 s

[run]
horizon = 2000 s
depth = 1
"""


def test_triggers_at_one_instant_go_by_node(monkeypatch):
    """At 150 s node 1's first trigger, queued at t = 0, meets node 0's
    second, queued at 50 s: node 0's goes first all the same."""
    s = loads_scenario(TRIGGERS_AT_ONE_INSTANT)
    popped = []
    advance = EventQueue.advance

    def spy(queue, *args):
        ev = advance(queue, *args)
        if ev is not None and ev.kind is _Engine._on_ckpt_begin and ev.time == 150.0:
            popped.append(ev)
        return ev

    monkeypatch.setattr(EventQueue, "advance", spy)
    _Engine(s, _programs(s.pattern)).run()
    assert [ev.node for ev in popped] == [0, 1]
    assert popped[1].seq < popped[0].seq  # queued first, handled second


def pending_triggers(engine):
    """(node, time) of each checkpoint trigger pending in ``engine``'s queue."""
    q = engine.q
    pending = [ev for ev in q._heap if ev.seq in q._pending]
    return sorted((ev.node, ev.time) for ev in pending if ev.kind is _Engine._on_ckpt_begin)


def test_a_pass_queues_one_checkpoint_trigger_per_node():
    """A node's timer has one trigger pending at a time, which queues the
    next as it fires: at the failure instant each node's is its first
    trigger after the failure (those at the failure instant went before
    it), and a pass run to the horizon has queued none past it."""
    s = SHAPED["halo_chain_8"]()
    base, snapshot = _failure_free_pass(s, _programs(s.pattern))
    fail, horizon = s.failure.time, s.horizon
    after = [(n, min(t for t in trigger_times(s.ckpt, n, horizon) if t > fail)) for n in range(s.nodes)]
    assert pending_triggers(snapshot) == after
    ref = snapshot.fork()
    ref.inject(base.messages)
    ref.run()
    assert pending_triggers(base) == pending_triggers(ref) == []


def test_a_finished_node_queues_no_checkpoint_trigger(monkeypatch):
    """A node's timer stops once the node has finished: the trigger pending
    then still fires, but it queues no next one, in any pass."""
    queued = []
    schedule_trigger = _Engine._schedule_trigger

    def spied(engine, node, t):
        if t <= engine.s.horizon and engine.procs[node].done_at is not None:
            queued.append((name, node, t))
        schedule_trigger(engine, node, t)

    monkeypatch.setattr(_Engine, "_schedule_trigger", spied)
    for name, s in derived_state_scenarios():
        simulate_detailed(s)
    assert queued == []


@pytest.mark.parametrize("name", ["halo_chain_8", "master_worker_6"])
def test_checkpoints_begin_at_each_trigger_that_finds_the_node_computing(name):
    """Without anticipation, a node's checkpoints begin exactly at the
    policy's triggers at which it computes, in pass 1 and in pass 2."""
    s = SHAPED[name]()
    assert not s.ckpt.anticipation_enabled
    base, snapshot = _failure_free_pass(s, _programs(s.pattern))
    snapshot.inject(base.messages)
    snapshot.run()
    checkpoints = 0
    for engine in (base, snapshot):
        for node, proc in enumerate(engine.procs):
            marks = list(zip(proc.mark_times, map(simulate._LABELS.__getitem__, proc.mark_labels)))
            begun = [t for t, label in marks if label == "CKPT"]

            def state_before(t):
                return max((m for m in marks if m[0] < t), key=lambda m: m[0])[1]

            triggers = trigger_times(s.ckpt, node, s.horizon)
            computing = [t for t in triggers if state_before(t) == "COMPUTE"]
            assert begun == computing, node
            checkpoints += len(begun)
    assert checkpoints


def test_a_state_mark_holds_at_most_12_bytes():
    """A mark is a time in an ``array('d')`` and a label byte (a (time,
    label) tuple in a list took 88 B, with its boxed time); a mark at the
    last mark's time replaces that one, a mark that repeats the label before
    it is not stored, and a replacement that matches the label before is
    merged into it."""
    s = SHAPED["master_worker_6"]()
    proc = _Engine(s, _programs(s.pattern)).procs[0]
    n, labels = 20_000, len(simulate._LABELS)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(1, n + 1):
            proc.mark(i * 0.5, i % labels)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 12 * n, held / n
    before = (n - 1) % labels  # the label of the mark before the last
    assert n % labels not in (0, before)  # so that each step below changes the marks
    proc.mark(n * 0.5, 0)  # replaces the last mark
    assert (len(proc.mark_times), len(proc.mark_labels), proc.mark_labels[-1]) == (n + 1, n + 1, 0)
    proc.mark(n * 0.5 + 1.0, 0)  # repeats the label before: not stored
    assert (len(proc.mark_times), proc.mark_times[-1], proc.mark_labels[-1]) == (n + 1, n * 0.5, 0)
    proc.mark(n * 0.5, before)  # a replacement with the label before: merged into it
    assert (len(proc.mark_times), len(proc.mark_labels)) == (n, n)
    assert (proc.mark_times[-1], proc.mark_labels[-1]) == ((n - 1) * 0.5, before)


def every_pass_scenarios(source):
    if source == "shaped":
        return [(name, build()) for name, build in SHAPED.items()]
    if source == "families":
        return [(seed, family_scenario(seed)) for seed in range(400)]
    return trace_order_scenarios(source)


@pytest.mark.parametrize("source", ["fixtures", "scengen", "families", "shaped"])
def test_every_pass_marks_each_state_run_once(source, monkeypatch):
    """After each pass, every node's marks strictly increase in time and no
    two neighbouring marks have one label: a mark is a state run, which the
    trace writes as one ``S`` record."""
    run = _Engine.run
    passes, bad = [], []

    def checked_run(engine, *args, **kwargs):
        run(engine, *args, **kwargs)
        passes.append(name)
        for proc in engine.procs:
            times, labels = proc.mark_times, proc.mark_labels
            if any(a >= b for a, b in pairwise(times)) or any(a == b for a, b in pairwise(labels)):
                bad.append((name, proc.node))

    monkeypatch.setattr(_Engine, "run", checked_run)
    for name, s in every_pass_scenarios(source):
        simulate_detailed(s)
    assert passes and bad == []


def derived_state_scenarios():
    for name in ALL_FIXTURES:
        yield name, load_scenario(FIXTURES / f"{name}.scn")
    for name, build in SHAPED.items():
        yield name, build()
    for seed in range(0, 400, 4):
        yield seed, family_scenario(seed)


def derived_state_violations(engine):
    """Each node whose fields break a rule that lets the engine read the
    node's state from its last mark: a milestone is pending exactly when the
    node computes, is not done and has one left; a node suspended on a
    message waits, checkpoints or sleeps; a done node is labelled WAIT_IDLE."""
    pending, wait = engine.q._pending, _LABELS[engine.wait_label]
    for proc in engine.procs:
        label = _LABELS[proc.mark_labels[-1]]
        due = label == "COMPUTE" and proc.done_at is None and proc.cursor < len(proc.order)
        if (proc.milestone_id in pending) != due or (proc.milestone_id is None) == due:
            yield proc.node, "milestone", label
        if proc.blocked_msg is not None and label not in (wait, "CKPT", "WAKEUP"):
            yield proc.node, "blocked", label
        if proc.done_at is not None and label != "WAIT_IDLE":
            yield proc.node, "done", label


@pytest.mark.parametrize("strategies", [True, False])
def test_a_nodes_last_mark_is_its_state_between_events(strategies, monkeypatch):
    """The rules of ``derived_state_violations`` hold before each event of
    every pass is popped, once the previous handler has returned (right after
    a pop, the popped milestone is no longer pending but its id is still
    set). A checkpoint end that finds its node checkpointing is the end of
    that very checkpoint. At its re-execution's end, the failed node's
    position and cursor are still those its failure left: recovery reads
    them as the point to re-execute up to."""
    run, advance, on_failure = _Engine.run, EventQueue.advance, _Engine._on_failure
    running, bad, suspended = [], [], set()
    at_failure, recoveries = {}, []  # id(engine) -> (node, position, cursor)

    def recorded_failure(engine, ev):
        on_failure(engine, ev)
        proc = engine.procs[ev.node]
        at_failure[id(engine)] = (ev.node, proc.position, proc.cursor)

    def tracked_run(engine, *args, **kwargs):
        running.append(engine)
        try:
            run(engine, *args, **kwargs)
        finally:
            running.pop()

    def checked_advance(queue, *args):
        engine = running[-1]
        assert engine.q is queue
        bad.extend((name, *v) for v in derived_state_violations(engine))
        suspended.update(
            _LABELS[p.mark_labels[-1]] for p in engine.procs if p.blocked_msg is not None
        )
        ev = advance(queue, *args)
        if ev is not None and ev.kind is _Engine._on_ckpt_end:
            proc = engine.procs[ev.node]
            if _LABELS[proc.mark_labels[-1]] == "CKPT" and proc.ckpt_end != ev.time:
                bad.append((name, ev.node, "stale checkpoint end", ev.time))
        if ev is not None and ev.kind is _Engine._on_reexec_end:
            proc = engine.procs[ev.node]
            recoveries.append(name)
            if at_failure[id(engine)] != (ev.node, proc.position, proc.cursor):
                bad.append((name, ev.node, "moved during recovery", ev.time))
        return ev

    monkeypatch.setattr(_Engine, "run", tracked_run)
    monkeypatch.setattr(_Engine, "_on_failure", recorded_failure)
    monkeypatch.setattr(EventQueue, "advance", checked_advance)
    for name, s in derived_state_scenarios():
        simulate_detailed(replace(s, strategies_enabled=strategies))
    assert bad == []
    assert len(set(recoveries)) > 100
    # every kind of suspension was checked: awake, anticipating and asleep
    assert suspended == {"WAIT_ACTIVE", "WAIT_IDLE", "CKPT"} | ({"WAKEUP"} if strategies else set())


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
    table = engine.messages
    for proc in engine.procs:
        for index, (kind, msg) in enumerate(zip(proc.kinds, proc.msgs)):
            side = 2 * msg + (kind & KIND_RECV)
            post = table.post[side]
            if isnan(post):
                continue
            if not kind & KIND_NONBLOCKING:
                sched[(proc.node, index)] = (post, post)
                continue
            # a wait counts once reached and, if it can suspend, transferred
            wait = table.wait[side]
            if isnan(wait) or (can_suspend(kind, 1, engine.buffered) and isnan(table.transfer[msg])):
                continue
            sched[(proc.node, index)] = (post, wait)
    return sched


def post_table(engine):
    """The pass-1 post of each op that posted."""
    table = engine.messages
    return {
        (proc.node, index): post
        for proc in engine.procs
        for index, (kind, msg) in enumerate(zip(proc.kinds, proc.msgs))
        if not isnan(post := table.post[2 * msg + (kind & KIND_RECV)])
    }


@pytest.mark.parametrize("cut", [False, True])
@pytest.mark.parametrize("name, s", list(forked_scenarios()))
def test_failure_free_times_equal_the_per_op_table(name, s, cut):
    if cut:  # ops left unposted or waiting at the horizon have no times
        s = replace(s, horizon=s.failure.time + (s.horizon - s.failure.time) / 4)
    programs = _programs(s.pattern)
    base, _ = _failure_free_pass(s, programs)
    table, posts = op_schedule_table(base), post_table(base)
    exchange = _failure_free_times(s.pattern, programs.msgs, base.messages)

    def times(proc, index):  # the pass-1 times where the table has them, the offsets otherwise
        ops = s.pattern.processes[proc]
        block = ops.offsets[2 * index + (ops.kinds[index] >> 1)]  # a non-blocking op's wait
        return table.get((proc, index), (ops.offsets[2 * index], block))

    def post(proc, index):  # a peer's recorded post, also where its wait never completed
        return posts.get((proc, index), s.pattern.processes[proc].offsets[2 * index])

    for proc, ops in enumerate(s.pattern.processes):
        for index, peer in enumerate(ops.peers):
            want = (*times(proc, index), post(peer, reference_matching_op(s.pattern, proc, index)))
            assert exchange(proc, index) == want, (name, proc, index)


def test_failure_free_times_look_up_a_peer_only_through_matching_op(monkeypatch):
    """Where a peer op never posted, the exchange reads its offset; it finds
    that op with ``CommPattern.matching_op``, the one FIFO lookup, and makes
    no lookup for an op whose peer posted. A horizon cut short, as in the
    per-op table's ``cut`` cases, leaves ops unposted."""
    calls = []
    matching_op = CommPattern.matching_op

    def spied(pattern, proc, index):
        calls.append((proc, index))
        return matching_op(pattern, proc, index)

    monkeypatch.setattr(CommPattern, "matching_op", spied)
    looked_up = 0
    for name, s in forked_scenarios():
        s = replace(s, horizon=s.failure.time + (s.horizon - s.failure.time) / 4)
        programs = _programs(s.pattern)
        base, _ = _failure_free_pass(s, programs)
        posts = post_table(base)
        exchange = _failure_free_times(s.pattern, programs.msgs, base.messages)
        for proc, ops in enumerate(s.pattern.processes):
            for index, peer in enumerate(ops.peers):
                calls.clear()
                exchange(proc, index)
                posted = (peer, reference_matching_op(s.pattern, proc, index)) in posts
                assert calls == ([] if posted else [(proc, index)]), (name, proc, index)
                looked_up += not posted
    assert looked_up >= 100, looked_up


def test_set_up_work_follows_the_analysed_pairs(monkeypatch):
    """Validation makes no per-op matching call, and the analysis asks for
    the pass-1 times of no op outside the process pairs it examined: each
    ``exchange(proc, index)`` call reads op ``index``'s one message."""
    matches = []
    matching_op = CommPattern.matching_op

    def counted_matching_op(pattern, proc, index):
        matches.append((proc, index))
        return matching_op(pattern, proc, index)

    monkeypatch.setattr(CommPattern, "matching_op", counted_matching_op)
    s = SHAPED["halo_chain_8"]()  # loads and validates
    s.validate()
    assert matches == []

    pairs = set()
    candidate_ops = cascade._candidate_ops

    def spied_candidate_ops(pattern, child, parent, *args):
        pairs.add(frozenset((child, parent)))
        return candidate_ops(pattern, child, parent, *args)

    read = []  # the message id of each exchange call
    failure_free_times = simulate._failure_free_times

    def spied_failure_free_times(pattern, msgs, baseline):
        exchange = failure_free_times(pattern, msgs, baseline)

        def spied_exchange(proc, index):
            read.append(msgs[proc][index])
            return exchange(proc, index)

        return spied_exchange

    monkeypatch.setattr(cascade, "_candidate_ops", spied_candidate_ops)
    monkeypatch.setattr(simulate, "_failure_free_times", spied_failure_free_times)
    simulate_detailed(s)
    assert read
    sides = {}  # each message id's two processes, from its ops' columns
    for proc, (ops, msgs) in enumerate(zip(s.pattern.processes, _programs(s.pattern).msgs)):
        for peer, msg in zip(ops.peers, msgs):
            assert sides.setdefault(msg, frozenset((proc, peer))) == frozenset((proc, peer))
    assert {sides[msg] for msg in read} <= pairs
    assert len(set(read)) < len(sides)


SIBLINGS_TALK = TWO_LEVELS + """
[pattern]
nodes = 3
op = 0 send 1 @ 10 s
op = 1 recv 0 @ 10 s
op = 1 send 2 @ 20 s
op = 2 recv 1 @ 20 s
op = 0 send 2 @ 30 s
op = 2 recv 0 @ 30 s

[checkpoint]
interval = 1000 s
duration = 10 s
offset = 500 s

[failure]
node = 0
time = 5 s
restart = 5 s

[run]
horizon = 400 s
depth = 3
"""


def test_a_sibling_block_lowers_an_estimate_end_to_end():
    # nodes 1 and 2 both block on the failed node 0 (at 10 s and 30 s); node
    # 2 blocks earlier, at 20 s, on its receive from the blocked node 1
    r = simulate_detailed(loads_scenario(SIBLINGS_TALK))
    assert [(e.process, e.block_time, e.level, e.cause) for e in r.estimates] == [
        (1, 10.0, 1, 0),
        (2, 20.0, 1, 1),
    ]
    assert {n: w.begin for n, w in r.reference_waits.items()} == {1: 10.0, 2: 20.0}


# -- programs and transfers ----------------------------------------------------


def anticipated_transfer_scenario():
    """Node 1 fails at 30 s and re-executes until 65 s, so node 0, reaching
    its receive at 50 s, waits where the failure-free run did not: it
    anticipates a checkpoint until 90 s, during which node 1 sends (80 s)."""
    return loads_scenario(TWO_LEVELS + """
[pattern]
nodes = 2
op = 1 send 0 @ 45 s
op = 0 recv 1 @ 50 s

[checkpoint]
interval = 1000 s
duration = 40 s
offset = 900 s
anticipation = on
alpha = 0.01

[failure]
node = 1
time = 30 s
restart = 5 s

[run]
horizon = 400 s
depth = 1
""", "anticipated_transfer")


def transfer_scenarios():
    yield from forked_scenarios()
    for seed in range(4, 8):
        yield f"seed{seed}", random_scenario(seed)
    yield "anticipated_transfer", anticipated_transfer_scenario()


@pytest.mark.parametrize("name, s", list(transfer_scenarios()))
def test_no_post_comes_after_its_transfer(name, s, monkeypatch):
    """After each pass, a transferred message was transferred at its second
    post, ``max(post[2·msg], post[2·msg + 1])``: no post is later than its transfer,
    since a replayed post whose message was transferred since the replay was
    scheduled leaves the message as it was."""
    run = _Engine.run
    off = []

    def checked_run(engine, *args, **kwargs):
        run(engine, *args, **kwargs)
        table = engine.messages
        off.append([
            msg for msg, (send, recv, transfer) in enumerate(
                zip(table.post[0::2], table.post[1::2], table.transfer)
            )
            if not isnan(transfer) and transfer != max(send, recv)
        ])

    monkeypatch.setattr(_Engine, "run", checked_run)
    simulate_detailed(s)
    assert off and not any(off), name


@pytest.mark.parametrize("name, s", list(transfer_scenarios()))
def test_the_posting_side_is_not_suspended_at_a_transfer(name, s, monkeypatch):
    """At a transfer only the side that posted first can be suspended on the
    message, so only its completion is ever queued."""
    register = _Engine._register_post
    transfers = []

    def spied(engine, proc, index, msg, now):
        transfer = engine.messages.transfer
        before = transfer[msg]
        waiting = proc.blocked_msg
        register(engine, proc, index, msg, now)
        if isnan(before) and not isnan(transfer[msg]):
            transfers.append((msg, waiting == msg))

    monkeypatch.setattr(_Engine, "_register_post", spied)
    simulate_detailed(s)
    assert transfers
    assert [msg for msg, suspended in transfers if suspended] == [], name


def test_a_transfer_during_an_anticipated_checkpoint_queues_no_completion(monkeypatch):
    """The checkpoint's end resumes the waiting node; the transfer during the
    checkpoint adds no event to passes 2 and 3."""
    s = anticipated_transfer_scenario()
    r = simulate_detailed(s)
    states = [(t.t0, t.t1, t.state) for t in r.trace if isinstance(t, StateRecord) and t.node == 0]
    assert states == [(0.0, 50.0, "COMPUTE"), (50.0, 90.0, "CKPT")]
    assert [(t.src, t.dst, t.t_complete) for t in r.trace if isinstance(t, CommRecord)] == [
        (1, 0, 80.0)
    ]
    # (scheduled, processed, cancelled) per pass; in pass 1, node 0's post
    # resumes node 1, suspended at its send, in place; pass 2 also handles
    # its rejoin record at 90 s, where node 0's wait ends
    assert pass_counts(s, monkeypatch) == [(2, 2, 0), (8, 7, 1), (7, 6, 1)]


def test_programs_share_message_keys_and_sort_by_offset():
    s = SHAPED["halo_chain_8"]()
    programs = _programs(s.pattern)
    assert programs._fields == ("order", "msgs", "modes")
    n = len(programs.modes)
    # every pass reads the pattern's own columns, not a copy
    base, snapshot = _failure_free_pass(s, programs)
    for engine in (base, snapshot, snapshot.fork()):
        for proc, ops in zip(engine.procs, s.pattern.processes, strict=True):
            assert proc.offsets is ops.offsets and proc.peers is ops.peers
            assert proc.kinds is ops.kinds
    columns = zip(s.pattern.processes, programs.order, programs.msgs, strict=True)
    for node, (ops, order, msgs) in enumerate(columns):
        # each op's post, and a non-blocking op's wait, once, sorted by
        # (offset, op index, is_wait)
        milestones = [
            (ops.offsets[2 * index + is_wait], index, is_wait)
            for index, kind in enumerate(ops.kinds)
            for is_wait in ((0, 1) if kind & KIND_NONBLOCKING else (0,))
        ]
        assert [2 * index + is_wait for _, index, is_wait in sorted(milestones)] == list(order)
        assert len(msgs) == len(ops)
        for index, (peer, msg) in enumerate(zip(ops.peers, msgs)):
            # both sides of a message carry its id
            assert programs.msgs[peer][s.pattern.matching_op(node, index)] == msg
    # one id per message, numbered in the order ``messages`` gives them
    ids = [programs.msgs[sender][send] for sender, _, send, _ in s.pattern.messages()]
    assert ids == list(range(n))


def test_a_senders_records_break_time_ties_by_message_id():
    """A sender's ``C`` records come by (post, transfer, message id), the
    receiver read from the send op's peer. Messages are numbered channel by
    channel, so on a tie the lower id is not always the earlier op: here
    node 0's op 2, to node 1, has id 1 and its op 1, to node 2, has id 2."""
    s = loads_scenario(TWO_LEVELS + """
[pattern]
nodes = 3
op = 0 send 1 @ 10 s
op = 0 send 2 @ 20 s
op = 0 send 1 @ 30 s
op = 1 recv 0 @ 10 s
op = 1 recv 0 @ 30 s
op = 2 recv 0 @ 20 s

[checkpoint]
interval = 1000 s
duration = 10 s
offset = 500 s

[failure]
node = 2
time = 100 s
restart = 5 s

[run]
horizon = 400 s
depth = 1
""")
    assert _programs(s.pattern).msgs[0].tolist() == [0, 2, 1]
    trace = simulate_detailed(s).trace

    def sends():
        return [(c.dst, c.t_post, c.t_complete) for c in trace if isinstance(c, CommRecord)]

    assert sends() == [(1, 10.0, 10.0), (2, 20.0, 20.0), (1, 30.0, 30.0)]
    # the view reads the final pass's columns: tie every post and transfer
    for msg in range(3):
        trace.post[2 * msg], trace.transfer[msg] = 50.0, 60.0
    assert sends() == [(1, 50.0, 60.0), (1, 50.0, 60.0), (2, 50.0, 60.0)]
    trace.transfer[2] = 55.0  # then the transfer decides
    assert [dst for dst, _, _ in sends()] == [2, 1, 1]


def wide_halo_text(nodes, steps, step=60.0):
    """A non-blocking 1-D halo: each node exchanges with both neighbours in
    every step, so every op has a post and a wait milestone."""
    lines = [_SYSTEM, "[pattern]", f"nodes = {nodes}", "mpi_mode = nonblocking",
             f"interval = {step} s"]
    until = step * (steps - 1)
    for i in range(nodes):
        for direction, peer, at in (("send", i - 1, 1.0), ("recv", i - 1, 1.2),
                                    ("send", i + 1, 1.1), ("recv", i + 1, 1.3)):
            if 0 <= peer < nodes:
                lines.append(f"op = {i} {direction} {peer} @ {at} s wait @ {at + 40.0:.1f} s"
                             f" every {step} s until {until + at:.1f} s")
    lines += ["[checkpoint]", "interval = 1000 s", "duration = 100 s", "offset = 500 s",
              "[failure]", "node = 1", "time = 300 s", "restart = 30 s",
              "[run]", f"horizon = {step * steps * 3} s", "depth = 2"]
    return "\n".join(lines)


def test_auto_depth_is_the_exhaustive_search():
    """``depth = auto`` cuts no search: on a 16-node halo whose node 8
    fails, it finds every block that the most ops any process holds finds,
    15, where depth 2 (the densest pair's messages in one 60 s repetition)
    finds 2, and the plans do not extend the run."""
    text = wide_halo_text(nodes=16, steps=20).replace(
        "interval = 60.0 s", "interval = 60.0 s\nrepetition = 60 s"
    ).replace("[failure]\nnode = 1", "[failure]\nnode = 8").replace("depth = 2", "depth = auto")
    s = loads_scenario(text, "wide_halo")
    most_ops = max(len(ops) for ops in s.pattern.processes)
    r = simulate_detailed(s)
    assert r.estimates == simulate_detailed(replace(s, depth=DepthConfig(most_ops))).estimates
    assert (len(r.estimates), len(r.plans)) == (15, 10)
    assert len(simulate_detailed(replace(s, depth=DepthConfig(2))).estimates) == 2
    assert r.makespan <= r.reference_makespan


def test_programs_hold_at_most_40_bytes_per_milestone():
    """A milestone is one int in its process's column, and an op's message id
    one int in another: offsets, kinds and ops are read from the pattern, not
    copied per milestone (an eight-field tuple per milestone held ~131 B).
    No table per message but the modes: a (sender, receiver) pointer per
    message took another 2.4 B per milestone here."""
    s = loads_scenario(wide_halo_text(nodes=32, steps=50), "wide_halo")
    milestones = sum(2 * len(ops) for ops in s.pattern.processes)
    assert milestones >= 10_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        programs = _programs(s.pattern)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 40 * milestones, held / milestones
    assert held <= 8 * milestones, held / milestones
    assert sum(len(order) for order in programs.order) == milestones


def test_a_loaded_scenario_holds_at_most_64_bytes_per_op():
    """The loader fills each process's columns straight from the file, about
    21 B per op plus the channel index, and builds no op object (a
    seven-field tuple per op held ~185 B); its transient peak stays under
    twice what the scenario holds."""
    text = wide_halo_text(nodes=32, steps=50)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        s = loads_scenario(text, "wide_halo")
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    ops = sum(len(ops) for ops in s.pattern.processes)
    assert ops >= 6_000
    assert held <= 64 * ops, held / ops
    assert peak < 2 * held, peak / held


def test_writing_a_trace_peaks_at_most_64_bytes_per_record(tmp_path):
    """A run's trace is a view over its final pass's state: writing it
    builds each record as it is written, with no list of records and no
    sort key per record (a key tuple per record took about 80 B)."""
    r = simulate_detailed(loads_scenario(wide_halo_text(nodes=32, steps=50), "wide_halo"))
    out = tmp_path / "wide_halo.trace"
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        write_trace(r.trace, out)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    records = out.read_bytes().count(b"\n") - 1
    assert records >= 3_000
    assert peak <= 64 * records, peak / records


SAME_INSTANT_POST = _SYSTEM + """
[pattern]
nodes = 3
wait_mode = active
mpi_mode = nonblocking
buffered = off
op = 0 send 1 @ 0.5 s wait @ 2.0 s
op = 0 send 1 @ 5.0 s wait @ 6.0 s
op = 0 send 2 @ 50 s wait @ 50 s
op = 1 recv 0 @ 0.2 s wait @ 1.0 s
op = 1 recv 0 @ 1.5 s wait @ 5.0 s
op = 2 recv 0 @ 50 s wait @ 50 s

[checkpoint]
interval = 1000 s
duration = 10 s
anticipation = on
alpha = 0.001
offset = 900 s

[failure]
node = 2
time = 3.0 s
restart = 20 s

[run]
horizon = 500 s
depth = auto
"""


# Node 1 reaches its wait at 5.0 s, the instant node 0 posts that message.
# With the failure at 3.0 s, node 0's post is an event queued while the
# failure is still ahead; with it at 1.8 s, node 0 handles the post in place,
# ahead of the clock. Either way a non-blocking post goes before every other
# event at its instant but the triggers and the failure, so the wait finds the
# message transferred: node 1 finishes there, and takes no anticipated
# checkpoint. Its records are the same in both runs but for the run's end.
SAME_INSTANT_RUNS = {
    "3.0": (
        b"0,No action,0.95,1.2 GHz,0.22,1.17,929.50,13.28,8.11\n"
        b"TOTAL,,,,,,929.50,,\n",
        b"S 0 0.000 50.000 COMPUTE\n"
        b"S 1 0.000 5.000 COMPUTE\n"
        b"S 2 0.000 3.000 COMPUTE\n"
        b"C 0 1 0.500 0.500 NB\n"
        b"S 2 3.000 23.000 RESTART\n"
        b"C 0 1 5.000 5.000 NB\n"
        b"S 1 5.000 73.000 WAIT_IDLE\n"
        b"S 2 23.000 26.000 REEXEC\n"
        b"S 2 26.000 73.000 COMPUTE\n"
        b"C 0 2 50.000 73.000 NB\n"
        b"S 0 50.000 60.000 CKPT\n"
        b"F 0 60.000 BEGIN MIN_FREQ\n"
        b"S 0 60.000 73.000 WAIT_ACTIVE\n"
        b"F 0 73.000 END MIN_FREQ\n",
    ),
    "1.8": (
        b"0,No action,0.97,1.2 GHz,0.20,1.17,843.70,12.05,7.36\n"
        b"TOTAL,,,,,,843.70,,\n",
        b"S 0 0.000 50.000 COMPUTE\n"
        b"S 1 0.000 5.000 COMPUTE\n"
        b"S 2 0.000 1.800 COMPUTE\n"
        b"C 0 1 0.500 0.500 NB\n"
        b"S 2 1.800 21.800 RESTART\n"
        b"C 0 1 5.000 5.000 NB\n"
        b"S 1 5.000 71.800 WAIT_IDLE\n"
        b"S 2 21.800 23.600 REEXEC\n"
        b"S 2 23.600 71.800 COMPUTE\n"
        b"C 0 2 50.000 71.800 NB\n"
        b"S 0 50.000 60.000 CKPT\n"
        b"F 0 60.000 BEGIN MIN_FREQ\n"
        b"S 0 60.000 71.800 WAIT_ACTIVE\n"
        b"F 0 71.800 END MIN_FREQ\n",
    ),
}


@pytest.mark.parametrize("failure, queued", [
    pytest.param("3.0", True, id="queued-post"),
    pytest.param("1.8", False, id="post-in-place"),
])
def test_a_wait_sees_a_post_made_at_its_instant(failure, queued, tmp_path, monkeypatch):
    handled = []
    on_milestone = _Engine._on_milestone

    def spied(engine, ev):
        handled.append((ev.node, ev.time))
        on_milestone(engine, ev)

    monkeypatch.setattr(_Engine, "_on_milestone", spied)
    scn = tmp_path / "same_instant.scn"
    scn.write_text(SAME_INSTANT_POST.replace("time = 3.0 s", f"time = {failure} s"))
    report, trace = tmp_path / "r.csv", tmp_path / "t.trace"
    assert cli.main(["run", str(scn), "--report", str(report), "--trace", str(trace)]) == 0
    assert ((0, 5.0) in handled) is queued  # node 0's post: an event, or handled in place
    rows, records = SAME_INSTANT_RUNS[failure]
    assert report.read_bytes() == (
        b"node,compute_action,t_comp_min,wait_action,t_wait_min,tt_min,save_j,save_rate_j_s,save_pct\n"
        + rows
    )
    assert trace.read_bytes() == b"TRACE v1\n" + records
    node_1 = [line.rsplit(b" ", 2) for line in records.splitlines() if line.startswith(b"S 1 ")]
    assert [(begin, label) for begin, _, label in node_1] == [
        (b"S 1 0.000", b"COMPUTE"), (b"S 1 5.000", b"WAIT_IDLE"),
    ]


SAME_INSTANT_RESUME = _SYSTEM + """
[pattern]
nodes = 4
wait_mode = active
mpi_mode = blocking
buffered = off
op = 0 send 3 @ 6 s wait @ 50 s
op = 0 send 1 @ 7 s
op = 0 recv 3 @ 30 s
op = 1 recv 0 @ 1 s wait @ 5 s
op = 1 send 2 @ 5 s wait @ 6 s
op = 2 send 3 @ 6.5 s wait @ 60 s
op = 2 recv 1 @ 7 s
op = 3 recv 0 @ 8 s
op = 3 recv 2 @ 9 s
op = 3 send 0 @ 20 s

[checkpoint]
interval = 1000 s
duration = 10 s
anticipation = on
alpha = 0.001
offset = 900 s

[failure]
node = 3
time = 2.0 s
restart = 20 s

[run]
horizon = 500 s
depth = auto
"""


# sha256 of the csv report and trace (output_digest) at each failure
# instant: the bytes of the run with every milestone and every completion
# an event
SAME_INSTANT_RESUME_DIGESTS = {
    "2.0": "a1008b9dfc472f01bbee19c92139ca902b19328d087d3ceb7b6b1b333b0bfec8",
    "6.2": "363445cd296aff1560c061e2fe6598776222dbc88b7ab431eadf476db111fcde",
}


@pytest.mark.parametrize("failure", [
    pytest.param("2.0", id="send-reached-in-place"),
    pytest.param("6.2", id="send-an-event"),
])
def test_a_released_node_posts_at_its_completion_turn(failure, tmp_path):
    """Node 1 waits from 5 s on node 0's blocking send of 7 s and posts to
    node 2 at the instant it goes on, its next op sharing the wait's offset.
    Node 2 reaches its blocking receive of that post at 7 s by an event
    queued at 6.5 s, after node 0's send was queued, and node 1's completion
    is queued only when the send transfers: node 2's receive blocks first
    and, after the failure, takes an anticipated checkpoint. So node 1 is
    not resumed in place, and node 0's send to it is an event, whether node
    0 reaches it from its post at 6 s (failure at 2 s) or by the send's own
    event (at 6.2 s)."""
    s = loads_scenario(SAME_INSTANT_RESUME.replace("time = 2.0 s", f"time = {failure} s"))
    assert StateRecord(2, 7.0, 17.0, "CKPT") in simulate_detailed(s).trace
    assert output_digest(s, tmp_path) == SAME_INSTANT_RESUME_DIGESTS[failure]


def queue_every_milestone(engine, proc, code, t):
    """``_Engine._run_ahead`` handling no milestone in place: each is an
    event, in the band the engine gives a queued milestone."""
    nonblocking_post = proc.kinds[code >> 1] & KIND_NONBLOCKING and not code & 1
    return t, (_FIRST if nonblocking_post else 0)


def queue_every_completion(engine, proc, msg, at):
    """``_Engine._release`` resuming no node in place: each goes on at an
    ``_on_complete`` event."""
    engine.q.schedule(at, _Engine._on_complete, proc.node, payload=msg)


def no_rejoin(engine):
    """``_Engine.handover`` handing pass 3 no tail: pass 3 runs to its end."""
    return None


def blocking_pipeline_scenario(nodes):
    """Node i receives from node i - 1 and sends to node i + 1, twice, all
    blocking. Each node after the first is suspended at its receive when its
    sender posts, and sends 0.01 s of work later, so one post of node 0
    releases the whole chain, each node in place. Node 0 fails between its
    two sends."""
    lines = [_SYSTEM, "[pattern]", f"nodes = {nodes}", "wait_mode = active",
             "mpi_mode = blocking", "buffered = off"]
    lines += ["op = 0 send 1 @ 2 s", "op = 0 send 1 @ 20 s"]
    for i in range(1, nodes):
        for offset in (1, 10):
            lines.append(f"op = {i} recv {i - 1} @ {offset} s")
            if i < nodes - 1:
                lines.append(f"op = {i} send {i + 1} @ {offset + 0.01} s")
    lines += ["[checkpoint]", "interval = 1000 s", "duration = 10 s", "anticipation = off",
              "[failure]", "node = 0", "time = 8 s", "restart = 1 s",
              "[run]", "horizon = 100 s", "depth = 1"]
    return loads_scenario("\n".join(lines), "blocking_pipeline")


def test_a_chain_of_releases_does_not_recurse(tmp_path, monkeypatch):
    """A post releases a suspended peer in place, whose own post releases
    the next one: the engine resumes them one after another from its
    worklist, not by nested calls, so a chain of 400 nodes runs (a nested
    call per node would pass Python's recursion limit) and writes the bytes
    of the run with every milestone and every completion an event."""
    s = blocking_pipeline_scenario(400)
    r = simulate_detailed(s)
    # every message is transferred, and every node finishes
    assert len([t for t in r.trace if isinstance(t, CommRecord)]) == 2 * 399
    assert r.makespan < s.horizon
    shipped = output_digest(s, tmp_path)
    monkeypatch.setattr(_Engine, "_run_ahead", queue_every_milestone)
    monkeypatch.setattr(_Engine, "_release", queue_every_completion)
    assert output_digest(s, tmp_path) == shipped


def test_a_blocking_post_runs_ahead_only_to_a_suspended_peer():
    """Node 0 posts its send at 10 s and fails at 20 s while blocked on it;
    it replays the send at 35 s, the instant node 1, out of a checkpoint
    since 26 s, reaches its receive. Node 0 has posted, but its post is
    stale: only a suspended peer's post is final. So node 1's receive is an
    event, queued after the replay, and the message carries the replayed
    post."""
    s = loads_scenario(TWO_LEVELS + """
[pattern]
nodes = 2
op = 0 send 1 @ 10 s
op = 0 recv 1 @ 40 s
op = 1 recv 0 @ 25 s
op = 1 send 0 @ 40 s

[checkpoint]
interval = 1000 s
duration = 10 s
anticipation = off
offset = 0: 900 s
offset = 1: 16 s

[failure]
node = 0
time = 20 s
restart = 5 s

[run]
horizon = 400 s
depth = 1
""", "stale_post")
    r = simulate_detailed(s)
    comms = [(t.src, t.dst, t.t_post, t.t_complete) for t in r.trace if isinstance(t, CommRecord)]
    assert comms == [(0, 1, 35.0, 35.0), (1, 0, 50.0, 65.0)]


# -- pass 3 rejoins pass 2 after the last planned release ---------------------


def rejoins(scenario) -> tuple[list[bool], list[array]]:
    """Whether pass 3 took pass 2's tail, once per tail pass 2 handed over,
    and the post column at each state digest taken: pass 2's at its record,
    then pass 3's at the rejoin key."""
    taken, posts = [], []
    run_to_rejoin, state_digest = _Engine.run_to_rejoin, _Engine._state_digest

    def spied_run(engine, tail):
        run_to_rejoin(engine, tail)
        if tail is not None:
            taken.append(engine.messages is tail.messages)

    def spied_digest(engine, at):
        posts.append(engine.messages.post[:])
        return state_digest(engine, at)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Engine, "run_to_rejoin", spied_run)
        patch.setattr(_Engine, "_state_digest", spied_digest)
        simulate_detailed(scenario)
    return taken, posts


@pytest.mark.parametrize("name", ["master_worker_6", "scenario7_long"])
def test_pass_3_rejoins_pass_2_from_an_equal_state(name):
    s = SHAPED[name]() if name in SHAPED else load_scenario(FIXTURES / f"{name}.scn")
    taken, (ref, final) = rejoins(s)
    assert taken == [True]
    assert ref.tobytes() == final.tobytes()


def test_pass_3_runs_on_where_a_slowed_node_posts_later():
    """On scenario3_active nodes 1-3 run slowed until their receives from
    the failed node 0 at 630.0, 630.2 and 630.4 s, and post them 6.4-6.5 s
    later than pass 2 did: the post columns differ at the rejoin key, 790.4
    s, so pass 3 runs on to its end."""
    taken, (ref, final) = rejoins(load_scenario(FIXTURES / "scenario3_active.scn"))
    assert taken == [False]
    differ = [
        (side & 1, ref[side], round(final[side], 6)) for side in range(len(ref))
        if ref[side:side + 1].tobytes() != final[side:side + 1].tobytes()
    ]
    assert differ == [(1, 630.0, 636.4), (1, 630.2, 636.64), (1, 630.4, 636.88)]  # receive sides


def test_the_rejoin_instant_is_the_latest_watched_end(monkeypatch):
    """The rejoin key is at the latest end of the estimated processes' first
    delayed waits, not at the instant the last of them is recorded: a resume
    made in place can run ahead of the clock. On master_worker_6 the last
    one is recorded at 921.0 s, and the latest end is 1002.5 s."""
    recorded = []
    schedule = EventQueue.schedule

    def spy(queue, time, kind, node, payload=None, band=0):
        if kind is _Engine._on_rejoin:
            recorded.append((queue.clock, time))
        return schedule(queue, time, kind, node, payload, band)

    monkeypatch.setattr(EventQueue, "schedule", spy)
    r = simulate_detailed(SHAPED["master_worker_6"]())
    estimated = {est.process for est in r.estimates}
    assert set(r.reference_waits) == estimated
    assert recorded == [(921.0, max(w.end for w in r.reference_waits.values()))]
    assert recorded[0][1] == 1002.5


# -- the two band-0 ties at one instant where the output differs from an event
# per milestone and per completion (ROADMAP item 7): pinned as shipped, so
# that a fix shows as a pin failure

TIE_SETTINGS = """
[checkpoint]
interval = 1000 s
duration = 10 s
anticipation = on
alpha = 0.001
offset = 900 s

[failure]
node = 3
time = 4 s
restart = 20 s

[run]
horizon = 500 s
depth = auto
"""

# Node 0 passes its wait at 5 s in place and at once posts its send of 5 s,
# ahead of node 1's receive at 5 s, queued at 0 s: the receive does not
# block. With an event per milestone the post waits for the wait's event,
# and node 1 blocks and takes an anticipated checkpoint at 5-15 s.
TIE_AFTER_A_WAIT = _SYSTEM + """
[pattern]
nodes = 4
wait_mode = active
mpi_mode = blocking
buffered = off
op = 0 send 2 @ 1 s wait @ 5 s
op = 0 send 1 @ 5 s wait @ 6 s
op = 1 recv 0 @ 5 s
op = 2 recv 0 @ 0.5 s
op = 2 recv 3 @ 4 s
op = 3 send 2 @ 3 s
""" + TIE_SETTINGS.replace("time = 4 s", "time = 0.5 s")

# Node 0's receive at 5 s is queued at 0 s and node 1's send at 5 s at 1 s,
# where an event per milestone queues them the other way round: node 0
# blocks first and takes the anticipated checkpoint at 5-15 s, not node 1.
TIE_BY_QUEUED_ORDER = _SYSTEM + """
[pattern]
nodes = 4
wait_mode = active
mpi_mode = blocking
buffered = off
op = 0 send 2 @ 3 s wait @ 30 s
op = 0 recv 1 @ 5 s
op = 1 send 2 @ 1 s
op = 1 send 0 @ 5 s
op = 2 recv 1 @ 0.5 s
op = 2 recv 0 @ 0.6 s wait @ 40 s
""" + TIE_SETTINGS

# (scenario, shipped output digest, anticipated checkpoints as shipped,
# anticipated checkpoints with an event per milestone and per completion)
TIES = {
    "after_a_wait": (
        TIE_AFTER_A_WAIT,
        "7932e1bf47958f7dbbcc053fe0fa4edfa022ce68c8c787406eabb6211f37e403",
        [(2, 8.35, 22.35)],
        [(1, 5.0, 15.0), (2, 8.35, 22.35)],
    ),
    "by_queued_order": (
        TIE_BY_QUEUED_ORDER,
        "88b3ced5f8f6386ca51bcdba0e29df0dab4357a54703e2ee588a6c9e90b47ee7",
        [(0, 5.0, 15.0)],
        [(1, 5.0, 15.0)],
    ),
}


def checkpoints(s):
    return [
        (t.node, round(t.t0, 6), round(t.t1, 6)) for t in simulate_detailed(s).trace
        if isinstance(t, StateRecord) and t.state == "CKPT"
    ]


@pytest.mark.parametrize("name", sorted(TIES))
def test_a_same_instant_tie_differs_from_the_all_events_run(name, tmp_path, monkeypatch):
    text, digest, shipped, all_events = TIES[name]
    s = loads_scenario(text, name)
    assert output_digest(s, tmp_path) == digest
    assert checkpoints(s) == shipped
    monkeypatch.setattr(_Engine, "_run_ahead", queue_every_milestone)
    monkeypatch.setattr(_Engine, "_release", queue_every_completion)
    assert output_digest(s, tmp_path) != digest
    assert checkpoints(s) == all_events
