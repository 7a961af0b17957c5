from dataclasses import replace
from pathlib import Path

import pytest

from ftsim.cascade import DepthConfig
from ftsim.energy import WaitMode
from ftsim.report import StateRecord, render_report, write_trace
from ftsim.scenario import load_scenario
from ftsim.simulate import _Engine, _programs, simulate_detailed

from scengen import random_scenario

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
def test_survivors_never_roll_back(name):
    r = detailed(name)
    for ref, final in zip(r.reference_states, r.final_states):
        assert final.pc >= 0
        if ref.node != r.scenario.failure.node:
            assert final.pc == ref.pc


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
