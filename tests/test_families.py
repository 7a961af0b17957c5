"""Properties on the pattern families of ``families``: the strategies never
extend the run (acceptance criterion 9), repeated runs write the same bytes
(criterion 12), and each node's ``S`` records tile the run without a gap.
The seeds that break a property today are listed exactly, so that both a
new violation and a fix fail a test. Pinned digests of a set of seeds guard
the simulated results off stars.
"""

import hashlib
from array import array
from collections import deque
from dataclasses import replace
from math import inf, nextafter
from operator import attrgetter

import pytest

from ftsim.energy import WaitAction
from ftsim.pattern import KIND_NONBLOCKING, OpColumns
from ftsim.report import FlagRecord, StateRecord, render_report, write_trace
from ftsim.scenario import load_scenario, loads_scenario
from ftsim.simulate import _Engine, _programs, simulate_detailed

from families import family_scenario
from scengen import random_scenario
from test_output_pins import FIXTURES, SHAPED, output_digest
from test_simulate import (
    SAME_INSTANT_POST,
    SAME_INSTANT_RESUME,
    SAME_INSTANT_RESUME_DIGESTS,
    no_rejoin,
    queue_every_completion,
    queue_every_milestone,
)

SEEDS = range(400)

# Seeds on which pass 3 ends after the reference run. Every plan that
# extends the run when applied alone slows a compute phase; the plans at
# f_max do not. On seed 110, a star around the failed node, the slowed nodes
# talk only to the failed node, whose messages ``_allowed_freqs`` does not
# check. Kept here so that a fix shows as a failure of this test.
EXTENDED = {79, 110, 379}

# Seeds whose trace has overlapping ``S`` records. None: a node's marks
# strictly increase in time, since a planned sleep is taken only when its
# transitions fit before the release (``_Engine._apply_wait_action``). Kept
# so that a new overlap shows.
OVERLAPPED = set()

FAMILY_DIGESTS = {
    0: "bc3e160020a4d5a6a2be8e7284342e441efcfb3cb833dda71bb900b3f32c9ad8",
    1: "bf3c1a509b8a6189b7edc40a26e5901e5a8edaf683cd9a63a1fa1fe00c56650b",
    2: "2c1efea4bfce479288acec7437b7cb723d1559f4b6d31f9c9c0a20f079fe24ce",
    3: "830a41e0299e707743295ea26099a6ae7479b39c3aa426e3a4beb20ee3905e62",
    4: "7871eba672eef8717ed795d874a0fe96676cd86a4610a1a8a6b4948885adf024",
    5: "98068dae96b309a3e1f622e4479807e7f1de1c2435b5373a34a895d083caf725",
    6: "e4483189f3e83db006bcfa4c808d64d4abe463b09c5df12b11866469a2ebc3e4",
    7: "91f22ff532563ed31f20464e2fc5f940a8b777cef6c3e8196c2c90debf5bbc79",
    8: "c6b3a5774c1d0353ea8899c53d75a0606989590aff11138e241051c95c95e982",
    9: "4a361ef70c226ef1c1d1e9265b184f7f88dbe98b5cc2158fcb7d5d2b74b0f568",
    10: "fad1756c8c5af6bd34935d10c1c7bd472b2b7991b45e59d23bc199303ef19e15",
    11: "ab66766d8812171557ccb4ef2fe85e713b296063fd20e3158aa53a7f1dd0eff9",
    12: "663a1036634f1d45924b734d5a5664f1b1b38ad7b59746edacc22f470b7bf50a",
    13: "c54374a21e7d0ada0d0f8c26588bc987d4e87f45075ff0e2f34995562a276132",
    14: "086eb7e688f8cda54a56af701039df77942e8dacb174af94b2907c2fb2835742",
    15: "299a6804a591fe704f393f6898cbfa389046390deb8ca83c9d00d156a964cd40",
    16: "dc29dfdcb6602f408c81fa98169e8480b393d8cf0a4aa6aa37fc17ece0516407",  # an exact level name
    17: "b77f241cd6077aadb8bf2805d2fd0db55f8be96780a18e8582cf6f54230767aa",
    18: "7e6276049e7ca4ce70e87387dc60e14cc06749c60d5fb76f8812fb3c68f3c4ff",
    19: "9dec6993e3ca4fe0e4b996efebb8fffeb0b0acb40429f67973756562d62d15ac",
    20: "b6c3ad491cb243789e6ffa79b2d0d9caff13cac4d6960427edc8689897c5accd",
    21: "fb02db8969f2ac380446d55895d2f37d487f10662338237320188e7b3986f20e",
    22: "fda802138b206336453aa02a40fd7efac1db7b92c81ab289e965bf6f10622d6f",
    23: "d76f062ded6a1644309b2c8d52e6e9cf838764e82a768c8eaa1bd9b13fd5b758",
}


@pytest.fixture(scope="module")
def results():
    return {seed: simulate_detailed(family_scenario(seed)) for seed in SEEDS}


def test_the_generator_covers_every_shape_and_mode():
    scenarios = [family_scenario(seed) for seed in range(40)]
    shapes = {s.name.rsplit("-", 1)[1] for s in scenarios}
    assert shapes == {"ring", "chain", "tree", "star", "random"}
    modes = {s.pattern.processes[0].kinds[0] & KIND_NONBLOCKING for s in scenarios}
    assert len(modes) == 2
    assert {s.pattern.buffered for s in scenarios} == {False, True}
    assert {s.ckpt.anticipation_enabled for s in scenarios} == {False, True}
    assert {s.depth.depth for s in scenarios} == {1, 2, 200}
    assert len({s.failure.node for s in scenarios}) > 3
    assert family_scenario(7) == family_scenario(7)


def test_criterion_9_never_extend(results):
    extended = {seed for seed, r in results.items() if r.makespan > r.reference_makespan}
    assert extended == EXTENDED
    assert sum(len(r.plans) for r in results.values()) > 1000


def test_state_records_tile_the_run(results):
    overlapped = set()
    for seed, r in results.items():
        states = [t for t in r.trace if isinstance(t, StateRecord)]
        end = max(t.t1 for t in states)
        for node in range(r.scenario.nodes):
            mine = sorted((t for t in states if t.node == node), key=lambda t: t.t0)
            assert mine[0].t0 == 0.0 and mine[-1].t1 == end, (seed, node)
            assert all(a.t1 >= b.t0 for a, b in zip(mine, mine[1:])), (seed, node)  # no gap
            if any(a.t1 != b.t0 for a, b in zip(mine, mine[1:])):
                overlapped.add(seed)
    assert overlapped == OVERLAPPED


def test_a_sleep_that_does_not_fit_before_its_release_is_not_taken(results):
    """Seed 38's node 2 is planned to sleep, but reaches its planned wait
    23.8 s before the release, with 45.0 s of transitions: it waits awake
    until the release, and no SLEEP flag is written."""
    r = results[38]
    wait, profile = r.reference_waits[2], r.scenario.profile
    plan = next(p for p in r.plans if p.node == 2)
    assert plan.wait_action is WaitAction.SLEEP
    states = [(t.t0, t.t1, t.state) for t in r.trace if isinstance(t, StateRecord) and t.node == 2]
    assert (1607.919, wait.end, "WAIT_ACTIVE") in states
    assert wait.end - 1607.919 < profile.t_go_sleep + profile.t_wakeup
    assert not {"GO_SLEEP", "SLEEP", "WAKEUP"} & {state for _, _, state in states}
    flags = [t for t in r.trace if isinstance(t, FlagRecord) and t.node == 2]
    assert all(f.label != "SLEEP" for f in flags)
    assert r.makespan == r.reference_makespan


def renumbered(s):
    """``s`` with node ``k`` renamed ``n - 1 - k``, in its programs, its
    checkpoint offsets and its failure."""
    last = s.nodes - 1
    processes = [
        OpColumns(proc, ops.offsets, array("i", [last - peer for peer in ops.peers]), ops.kinds)
        for proc, ops in enumerate(reversed(s.pattern.processes))
    ]
    offsets = {last - node: t for node, t in s.ckpt.phase_offsets.items()}
    return replace(
        s,
        pattern=replace(s.pattern, processes=processes),
        ckpt=replace(s.ckpt, phase_offsets=offsets),
        failure=replace(s.failure, node=last - s.failure.node),
    )


def doubled(s):
    """``s`` with every duration doubled: the op offsets, the checkpoint
    interval, duration and offsets, the failure time, the restart,
    the horizon and the sleep transitions. Doubling is exact in binary
    floating point, and rounding commutes with it: a sum or difference of
    doubled values, or a doubled value times a power or a slowdown, rounds
    to the double of what the undoubled values give."""
    processes = [
        OpColumns(ops.proc, array("d", [2 * t for t in ops.offsets]), ops.peers, ops.kinds)
        for ops in s.pattern.processes
    ]
    profile, ckpt, failure = s.profile, s.ckpt, s.failure
    return replace(
        s,
        profile=replace(profile, t_go_sleep=2 * profile.t_go_sleep, t_wakeup=2 * profile.t_wakeup),
        pattern=replace(s.pattern, processes=processes),
        ckpt=replace(
            ckpt,
            interval=2 * ckpt.interval,
            duration=2 * ckpt.duration,
            phase_offsets={node: 2 * t for node, t in ckpt.phase_offsets.items()},
        ),
        failure=replace(failure, time=2 * failure.time, restart_duration=2 * failure.restart_duration),
        horizon=2 * s.horizon,
    )


by_process, by_node = attrgetter("process"), attrgetter("node")


def test_renumbering_the_nodes_changes_no_result(results):
    """Bit-exact: the makespans, the estimates and the plans of a family do
    not depend on how its nodes are numbered."""
    for seed, r in results.items():
        last = r.scenario.nodes - 1
        mirror = simulate_detailed(renumbered(r.scenario))
        assert (mirror.makespan, mirror.reference_makespan) == (r.makespan, r.reference_makespan)
        estimates = [replace(e, process=last - e.process, cause=last - e.cause) for e in r.estimates]
        assert sorted(mirror.estimates, key=by_process) == sorted(estimates, key=by_process), seed
        plans = [replace(p, node=last - p.node) for p in r.plans]
        assert sorted(mirror.plans, key=by_node) == sorted(plans, key=by_node), seed


def test_doubling_every_duration_doubles_every_result(results):
    """Bit-exact: doubling every duration doubles the makespans, the block
    times and each plan's energies and times, and keeps its actions."""
    for seed, r in results.items():
        twice = simulate_detailed(doubled(r.scenario))
        assert (twice.makespan, twice.reference_makespan) == (
            2 * r.makespan, 2 * r.reference_makespan
        ), seed
        estimates = [replace(e, block_time=2 * e.block_time) for e in r.estimates]
        assert sorted(twice.estimates, key=by_process) == sorted(estimates, key=by_process), seed
        plans = [
            replace(
                p, eni_j=2 * p.eni_j, ei_j=2 * p.ei_j, saving_j=2 * p.saving_j,
                t_comp=2 * p.t_comp, t_wait=2 * p.t_wait, tt=2 * p.tt,
            )
            for p in r.plans
        ]
        assert sorted(twice.plans, key=by_node) == sorted(plans, key=by_node), seed


# Failure instants on a node's pending milestone: resyncing the node's
# position at the failure rounds that milestone a few ulps before the clock,
# and the queue used to refuse it (``kernel.PastTime``).
ON_A_MILESTONE = [(78, 1, 682.96), (91, 2, 128.507), (100, 0, 85.44800000000001)]


@pytest.mark.parametrize("seed, node, time", ON_A_MILESTONE)
def test_a_failure_on_a_pending_milestone_runs(seed, node, time):
    s = family_scenario(seed)
    r = simulate_detailed(replace(s, failure=replace(s.failure, node=node, time=time)))
    assert r.makespan <= r.reference_makespan


# The failure-instant sweep: on every 8th seed, the shipped failed node fails
# at each of its failure-free state boundaries in (0, horizon), and one ulp
# before and after each, 1,788 runs. A run is named (seed, boundary index,
# ulp step). The runs that end after their reference run are listed exactly,
# as ``EXTENDED`` lists the shipped instants; none crashes. One digest covers
# every run's makespans, plans, estimates, reference waits and trace records.
SWEEP_SEEDS = range(0, 400, 8)
SWEEP_RUNS = 1788
SWEEP_EXTENDED = {
    (72, 2, -1), (72, 2, 0), (72, 2, 1),
    (152, 4, -1), (152, 4, 0), (152, 6, -1), (152, 6, 0),
    (176, 0, -1), (176, 0, 0),
    (264, 13, 0), (264, 13, 1), (264, 16, -1), (264, 16, 0), (264, 16, 1),
    (264, 30, -1), (264, 30, 0), (264, 30, 1), (264, 31, -1), (264, 31, 0), (264, 31, 1),
    (264, 32, -1), (264, 32, 0), (264, 32, 1), (264, 33, -1), (264, 33, 0), (264, 33, 1),
    (264, 34, -1), (264, 34, 0),
    (296, 6, -1), (296, 6, 0),
}
SWEEP_DIGEST = "107028d7e2f05e2a986ad15d568ad3dca3487ade7937fbbb40d0e16789a2e0c2"


def failure_instants(s):
    """``(index, step, time)`` for each state boundary of the failed node's
    failure-free marks inside (0, horizon), at the boundary (step 0) and one
    ulp before (-1) and after (+1) it."""
    engine = _Engine(s, _programs(s.pattern))
    engine.run()
    boundaries = [t for t in engine.procs[s.failure.node].mark_times if 0.0 < t < s.horizon]
    for index, t in enumerate(boundaries):
        for step in (-1, 0, 1):
            yield index, step, nextafter(t, step * inf) if step else t


def test_every_failure_instant_of_the_failed_node():
    digest, runs, crashed, extended = hashlib.sha256(), 0, [], set()
    for seed in SWEEP_SEEDS:
        s = family_scenario(seed)
        for index, step, time in failure_instants(s):
            runs += 1
            try:
                r = simulate_detailed(replace(s, failure=replace(s.failure, time=time)))
            except Exception as exc:  # a crash on valid input is a finding: list them all
                crashed.append((seed, index, step, repr(exc)))
                continue
            if r.makespan > r.reference_makespan:
                extended.add((seed, index, step))
            result = (r.makespan, r.reference_makespan, r.plans, r.estimates, r.reference_waits)
            digest.update(repr((*result, list(r.trace))).encode())
    assert (runs, crashed) == (SWEEP_RUNS, [])
    assert extended == SWEEP_EXTENDED
    assert digest.hexdigest() == SWEEP_DIGEST


def test_handling_milestones_in_place_changes_no_output(tmp_path, monkeypatch):
    """A node runs through the milestones nothing can interrupt with no
    event, and a node a post releases resumes in place: the same bytes as
    with every milestone and every completion an event, on the fixtures,
    the same-instant post and the same-instant resume at both their failure
    instants, every 8th family, and every failure instant of every 32nd
    family, of the blocking fixture and of the master-worker star."""
    runs = [load_scenario(path) for path in sorted(FIXTURES.glob("*.scn"))]
    runs += [
        loads_scenario(SAME_INSTANT_POST.replace("time = 3.0 s", f"time = {failure} s"))
        for failure in ("3.0", "1.8")
    ]
    runs += [
        loads_scenario(SAME_INSTANT_RESUME.replace("time = 2.0 s", f"time = {failure} s"))
        for failure in SAME_INSTANT_RESUME_DIGESTS
    ]
    runs += [family_scenario(seed) for seed in SWEEP_SEEDS]
    swept = [family_scenario(seed) for seed in SWEEP_SEEDS[::4]]
    swept += [load_scenario(FIXTURES / "scenario2_blocking.scn"), SHAPED["master_worker_6"]()]
    for s in swept:
        runs += [replace(s, failure=replace(s.failure, time=t)) for _, _, t in failure_instants(s)]
    shipped = [output_digest(s, tmp_path) for s in runs]
    monkeypatch.setattr(_Engine, "_run_ahead", queue_every_milestone)
    monkeypatch.setattr(_Engine, "_release", queue_every_completion)
    assert [output_digest(s, tmp_path) for s in runs] == shipped


def check_every_wake(monkeypatch):
    """Spy on the two ways a suspended node goes on at its transfer: each
    ``_on_complete`` event must find its node suspended on the event's
    message at the wait label, and each node the worklist hands out must be
    suspended at the wait label on a message transferred at the entry's
    instant. Return the count of each, filled in as the engines run."""
    woken = {"completions": 0, "resumes": 0}
    on_complete, run = _Engine._on_complete, _Engine.run

    def checked_complete(engine, ev):
        proc = engine.procs[ev.node]
        assert proc.blocked_msg == ev.payload and proc.mark_labels[-1] == engine.wait_label
        woken["completions"] += 1
        on_complete(engine, ev)

    class Worklist(deque):
        def popleft(self):
            node, at = super().popleft()
            proc = self.engine.procs[node]
            msg = proc.blocked_msg
            assert msg is not None and proc.mark_labels[-1] == self.engine.wait_label
            assert self.engine.messages.transfer[msg] == at
            woken["resumes"] += 1
            return node, at

    def checked_run(engine, *args, **kwargs):
        engine.resumes = Worklist(engine.resumes)
        engine.resumes.engine = engine
        run(engine, *args, **kwargs)

    monkeypatch.setattr(_Engine, "_on_complete", checked_complete)
    monkeypatch.setattr(_Engine, "run", checked_run)
    return woken


def test_rejoining_pass_2_changes_no_output(tmp_path, monkeypatch):
    """Pass 3 stops at the rejoin key and takes pass 2's tail where the two
    states are equal there: the same bytes as pass 3 run to its end, on the
    fixtures, ``scengen`` 0-199, every 8th family and every failure instant
    of every 32nd family. Both branches are taken in this set. On the
    shipped runs, every completion and every resume from the worklist finds
    its node suspended at the wait label (``check_every_wake``)."""
    runs = [load_scenario(path) for path in sorted(FIXTURES.glob("*.scn"))]
    runs += [random_scenario(seed) for seed in range(200)]
    runs += [family_scenario(seed) for seed in SWEEP_SEEDS]
    for s in [family_scenario(seed) for seed in SWEEP_SEEDS[::4]]:
        runs += [replace(s, failure=replace(s.failure, time=t)) for _, _, t in failure_instants(s)]
    taken = []
    run_to_rejoin = _Engine.run_to_rejoin

    def spied(engine, tail):
        run_to_rejoin(engine, tail)
        if tail is not None:
            taken.append(engine.messages is tail.messages)

    monkeypatch.setattr(_Engine, "run_to_rejoin", spied)
    woken = check_every_wake(monkeypatch)
    shipped = [output_digest(s, tmp_path) for s in runs]
    assert woken["completions"] and woken["resumes"]
    # of the runs whose pass 2 hands over a tail, 375 rejoin and 108 run on
    assert (taken.count(True), taken.count(False)) == (375, 108)
    monkeypatch.setattr(_Engine, "handover", no_rejoin)
    assert [output_digest(s, tmp_path) for s in runs] == shipped


@pytest.mark.parametrize("seed", range(0, 400, 8))
def test_criterion_12_byte_determinism(seed, tmp_path):
    blobs = []
    for run in range(2):
        r = simulate_detailed(family_scenario(seed))
        path = tmp_path / f"{run}.trace"
        write_trace(r.trace, path)
        blobs.append((path.read_bytes(), render_report(r.report, "csv").encode()))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("seed", sorted(FAMILY_DIGESTS))
def test_family_output_bytes(seed, tmp_path):
    assert output_digest(family_scenario(seed), tmp_path) == FAMILY_DIGESTS[seed]
