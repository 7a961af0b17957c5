"""Acceptance suite: one test per shipped criterion, each printing a PASS
line with the measured numbers (run with ``pytest -s`` to see them inline).
"""

import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from ftsim.cascade import DepthConfig, estimate_block_times
from ftsim.energy import SystemProfile, WaitAction, WaitMode, node_best_plan, sleep_wait_energy
from ftsim.report import render_report, write_trace
from ftsim.scenario import load_scenario
from ftsim.simulate import simulate_detailed

from oprows import op_pattern
from scengen import random_scenario
from test_cascade import offsets
from test_energy import LEVELS, brute_force_plan, default_estimate, random_profile

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"

_cache: dict[tuple[str, int | None], object] = {}
_runtimes: dict[str, float] = {}


def result_of(name, depth=None):
    key = (name, depth)
    if key not in _cache:
        s = load_scenario(FIXTURES / f"{name}.scn")
        if depth is not None:
            s = replace(s, depth=DepthConfig(depth))
        started = time.perf_counter()
        _cache[key] = simulate_detailed(s)
        _runtimes[name] = time.perf_counter() - started
    return _cache[key]


def rows_of(name, depth=None):
    return sorted(result_of(name, depth).plans, key=lambda p: p.node)


def actions(plan):
    return (plan.compute_action.ghz, plan.wait_action)


def test_criterion_1_scenario1():
    short = rows_of("scenario1_short")
    long = rows_of("scenario1_long")
    assert len(short) == len(long) == 3
    for plan in short:
        assert actions(plan) == (2.1, WaitAction.MIN_FREQ)
        assert abs(plan.saving_pct - 14.03) <= 1.0
        assert abs(plan.saving_j - 18704.5) / 18704.5 <= 0.02
    for plan in long:
        assert actions(plan) == (2.8, WaitAction.SLEEP)
        assert abs(plan.saving_pct - 85.82) <= 1.0
        assert abs(plan.saving_j - 516084.73) / 516084.73 <= 0.02
    runtime = _runtimes["scenario1_short"] + _runtimes["scenario1_long"]
    assert runtime < 5.0
    print(
        f"\nACCEPTANCE 1 PASS: scenario 1 short {short[0].saving_pct:.2f}% "
        f"(2.1 GHz / 1.2 GHz), long {long[0].saving_pct:.2f}% (No action / sleep), "
        f"runtime {runtime:.2f} s"
    )


def test_criterion_2_scenario2():
    blocking = rows_of("scenario2_blocking")
    nonblocking = rows_of("scenario2_nonblocking")
    assert [p.node for p in blocking] == [1]
    assert actions(blocking[0]) == (2.8, WaitAction.SLEEP)
    assert abs(blocking[0].saving_pct - 72.06) <= 1.5
    assert [p.node for p in nonblocking] == [1]
    assert actions(nonblocking[0]) == (2.1, WaitAction.MIN_FREQ)
    assert abs(nonblocking[0].saving_pct - 27.29) <= 1.5
    print(
        f"\nACCEPTANCE 2 PASS: scenario 2 blocking {blocking[0].saving_pct:.2f}% (sleep), "
        f"non-blocking {nonblocking[0].saving_pct:.2f}% (2.1 GHz / 1.2 GHz)"
    )


def test_criterion_3_scenario3():
    active = rows_of("scenario3_active")
    idle = rows_of("scenario3_idle")
    assert len(active) == len(idle) == 3
    for plan in active:
        assert abs(plan.saving_pct - 36.6) <= 1.0
    for plan in idle:
        assert plan.saving_pct <= 0.5
        assert plan.wait_action is WaitAction.NONE
    print(
        f"\nACCEPTANCE 3 PASS: scenario 3 active {active[0].saving_pct:.2f}%, "
        f"idle {idle[0].saving_pct:.2f}% (No action)"
    )


def test_criterion_4_scenario4():
    unbuffered = rows_of("scenario4_unbuffered")
    buffered = result_of("scenario4_buffered")
    assert len(unbuffered) == 3
    for plan in unbuffered:
        assert actions(plan) == (2.8, WaitAction.SLEEP)
        assert abs(plan.saving_pct - 32.7) <= 1.5
    assert buffered.plans == []
    assert buffered.report.total_j == 0.0
    print(
        f"\nACCEPTANCE 4 PASS: scenario 4 unbuffered {unbuffered[0].saving_pct:.2f}% "
        f"(3x sleep), buffered 0 nodes / 0 J"
    )


def test_criterion_5_scenario5():
    shallow = rows_of("scenario5", depth=1)
    deep = rows_of("scenario5", depth=5)
    assert [p.node for p in shallow] == [1]
    total_shallow = sum(p.saving_j for p in shallow)
    assert abs(total_shallow - 32518.0) / 32518.0 <= 0.05
    assert [p.node for p in deep] == [1, 2, 3]
    total_deep = sum(p.saving_j for p in deep)
    assert abs(total_deep - 79889.0) / 79889.0 <= 0.05
    assert actions(deep[2]) == (2.8, WaitAction.MIN_FREQ)
    print(
        f"\nACCEPTANCE 5 PASS: scenario 5 depth 1 total {total_shallow:.0f} J (1 node), "
        f"depth 5 total {total_deep:.0f} J (3 nodes, node 3 No action / 1.2 GHz)"
    )


def test_criterion_6_scenario6():
    on = rows_of("scenario6_anticipated")
    off = rows_of("scenario6_plain")
    for plan in on:
        assert round(plan.t_wait / 60.0, 2) == 54.00
        assert abs(plan.saving_pct - 83.0) <= 1.0
    for plan in off:
        assert round(plan.t_wait / 60.0, 2) == 56.00
        assert abs(plan.saving_pct - 85.8) <= 1.0
    print(
        f"\nACCEPTANCE 6 PASS: scenario 6 anticipation on 54.00 min {on[0].saving_pct:.2f}%, "
        f"off 56.00 min {off[0].saving_pct:.2f}%"
    )


def test_criterion_7_scenario7():
    long = rows_of("scenario7_long")
    short_b = rows_of("scenario7_short_blocking")
    short_nb = rows_of("scenario7_short_nonblocking")
    assert len(long) == 3
    for plan in long:
        assert plan.wait_action is WaitAction.SLEEP
        assert abs(plan.saving_pct - 91.39) <= 1.0
    for plan in short_b:
        assert abs(plan.saving_pct - 42.6) <= 1.5
    for plan in short_nb:
        assert abs(plan.saving_pct - 40.9) <= 1.5
    assert short_nb[0].t_comp > short_b[0].t_comp
    print(
        f"\nACCEPTANCE 7 PASS: scenario 7 long {long[0].saving_pct:.2f}% (3x sleep), "
        f"short blocking {short_b[0].saving_pct:.2f}%, short non-blocking "
        f"{short_nb[0].saving_pct:.2f}% (compute {short_nb[0].t_comp:.1f} s > {short_b[0].t_comp:.1f} s)"
    )


def test_criterion_8_oracle_equivalence():
    rng = random.Random(52)
    mismatches = 0
    cases = 0
    for _ in range(1000):
        profile, t_ckpt = random_profile(rng)
        t_fmax = rng.uniform(0, 2000)
        n_ckpt = rng.choice([0, 0, 1])
        window = t_fmax + n_ckpt * t_ckpt + rng.uniform(0, 4000)
        mode = rng.choice([WaitMode.ACTIVE, WaitMode.IDLE])
        est = default_estimate(t_fmax, window, n_ckpt=n_ckpt, t_ckpt=t_ckpt)
        plan = node_best_plan(est, profile, mode, set(profile.freqs))
        _, _, _, f, action = brute_force_plan(est, profile, mode)
        cases += 1
        if (plan.compute_action.ghz, plan.wait_action) != (f.ghz, action):
            mismatches += 1
    assert cases >= 1000 and mismatches == 0
    print(f"\nACCEPTANCE 8 PASS: selector matches brute force on {cases} random estimates")


def test_criterion_9_deadline_safety():
    checked = 0
    for path in sorted(FIXTURES.glob("*.scn")):
        r = result_of(path.stem)
        assert r.makespan <= r.reference_makespan
        checked += 1
    r5 = result_of("scenario5", depth=1)
    assert r5.makespan <= r5.reference_makespan
    for seed in range(200):
        r = simulate_detailed(random_scenario(seed))
        assert r.makespan <= r.reference_makespan, f"seed {seed}"
        checked += 1
    print(f"\nACCEPTANCE 9 PASS: makespan never exceeds the reference over {checked} runs")


def test_criterion_10_cascade_soundness():
    for path in sorted(FIXTURES.glob("*.scn")):
        r = result_of(path.stem)
        if path.stem != "scenario4_buffered":
            assert r.estimates, f"{path.stem}: no analysis output"
        for est in r.estimates:
            log = r.reference_waits.get(est.process)
            assert log is not None, f"{path.stem}: node {est.process} never blocked"
            assert log.begin == est.block_time, f"{path.stem}: node {est.process}"

    # worked three-process example: the sibling update lands strictly
    # between the two direct block times
    pattern = op_pattern([
        [],
        [(2, "send", 10.0), (3, "send", 30.0)],
        [(1, "recv", 10.0), (3, "send", 20.0)],
        [(2, "recv", 20.0), (1, "recv", 30.0)],
    ])
    estimates = estimate_block_times(pattern, 1, 0.0, DepthConfig(2), offsets(pattern))
    assert {(e.process, e.block_time) for e in estimates} == {(2, 10.0), (3, 20.0)}
    print("\nACCEPTANCE 10 PASS: predicted block times equal reference trace blocks; "
          "three-process example converges to the intermediate time")


def test_criterion_11_energy_identities():
    profile = SystemProfile(freqs=LEVELS)
    assert abs(sleep_wait_energy(300.0, profile) - 4970.0) / 4970.0 <= 1e-6
    for path in sorted(FIXTURES.glob("*.scn")):
        r = result_of(path.stem)
        for plan in r.plans:
            assert plan.saving_j == plan.eni_j - plan.ei_j
        assert r.report.total_j == sum(p.saving_j for p in r.report.rows)
    print("\nACCEPTANCE 11 PASS: sleep example 4970 J exact; savings identities exact")


def test_criterion_12_determinism(tmp_path):
    for path in sorted(FIXTURES.glob("*.scn")):
        blobs = []
        for run in range(2):
            s = load_scenario(path)
            r = simulate_detailed(s)
            trace_path = tmp_path / f"{path.stem}.{run}.trace"
            write_trace(r.trace, trace_path)
            report = render_report(r.report, "csv")
            blobs.append((trace_path.read_bytes(), report.encode()))
        assert blobs[0] == blobs[1], path.stem
    print("\nACCEPTANCE 12 PASS: repeated runs produce byte-identical trace and report")
