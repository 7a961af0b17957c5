"""Byte pins: the sha256 of the CSV report plus the trace of each fixture and
of a few generated scenarios, and the events each engine pass schedules,
processes and cancels. A change meant to keep output as it is (a refactor, a
speed-up) must leave every pin unchanged; a change that moves simulated
results on purpose updates them here and says why.
"""

import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from ftsim.kernel import EventQueue
from ftsim.report import render_report, write_trace
from ftsim.scenario import load_scenario, loads_scenario
from ftsim.simulate import _Engine, simulate_detailed

from scengen import random_scenario

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"

FIXTURE_DIGESTS = {
    "scenario1_long": "2fc688e0cced31d93955bd30a346dd35dab1831761d6adf52395579b2cd9e8f6",
    "scenario1_short": "078b7c6744bdd5c19363fc41b6857c120955cd37da9e79a45a2c12133027b6eb",
    "scenario2_blocking": "2035d23f876ee8a933783b2da24163c4735514740332e5949e95865eb0e7da84",
    "scenario2_nonblocking": "ed442efe604169d30d10937a034319d76ea49fff2e93a2b88dec183cac94c8d2",
    "scenario3_active": "fc0eb6f8e45670f7ea6185cf2cacf6275817f2f57d5326024fb67bd54350b771",
    "scenario3_idle": "4602d12c90acdf490ae0bf02b2e79d2ce1d34bedf7e7ee292a2ea1190de0b96b",
    "scenario4_buffered": "cb780a3200c935d035cdc9e37e6a7cca065bb3492a26f77c88541f34c8d21975",
    "scenario4_unbuffered": "a8d5dbb1acca1d62abb0cc0da207d01e148202ee4905a074647038162a6c8608",
    "scenario5": "e3c86fd8349182150cac3a430a0ce94a814a58cf2e519d8d99da0cacd8077ec5",
    "scenario6_anticipated": "c09c4fa116673ff773780d5d0dc0f0a5f1b870e2427d433d82e432d82f7c170f",
    "scenario6_plain": "2fc688e0cced31d93955bd30a346dd35dab1831761d6adf52395579b2cd9e8f6",
    "scenario7_long": "e51e5dc26b1bf303bf30df864480636ba5375d9b36b5bbf6f5376c9cfff4d31d",
    "scenario7_short_blocking": "f363792b8943daebadd3aeaa5a7af2ca13bb24c9f0f5dab30aa9ce0d1ea87f29",
    "scenario7_short_nonblocking": "8202d7bcedafbc863b5eb4e0624c95d73e731fb15238b45ffd9751a45c72941e",
}

# seeds 0-1 are non-blocking, 3 and 5 buffered; depths 1, 2 and 5 all occur;
# seeds 3, 5 and 7 name a slowed level's frequency exactly (``energy.ghz_name``)
GENERATED_DIGESTS = {
    0: "b128ff1464ce16b0894d7e8868411e1597d8bcae5667171ab0b9aed812a1441a",
    1: "bcda30730be13079e69f3cd2e13d2dec6052f3fc233fc627b0973cb9ed8664c5",
    2: "08d52917a85830c307715b9c338980183a3006edf576e0f60faeaa2013d1b169",
    3: "967159c882f1bbd548f267d9b45aca8fe8f6dc9abf346ea36b82f295680ced1a",
    4: "9a8ca8637fe9f8c06170fa8b5e82a5f18e8851146b9b6bac232907b9ae02048d",
    5: "298b4f7239e47c9f2785ce80feae4c70eb75daa0858985731bf6194e55c8b32c",
    6: "7c21d86c8d92399356bc612d01b8aa113930f49444fb0ec9324e9e549408ad38",
    7: "af0ece428c24c9899417c2394665c0565df155cfe3385b0d672a6803a6e42f43",
}


def output_digest(scenario, tmp_path) -> str:
    result = simulate_detailed(scenario)
    trace_path = tmp_path / "run.trace"
    write_trace(result.trace, trace_path)
    report = render_report(result.report, "csv").encode()
    return hashlib.sha256(report + b"\0" + trace_path.read_bytes()).hexdigest()


def test_every_fixture_is_pinned():
    assert sorted(p.stem for p in FIXTURES.glob("*.scn")) == sorted(FIXTURE_DIGESTS)


@pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
def test_fixture_output_bytes(name, tmp_path):
    scenario = load_scenario(FIXTURES / f"{name}.scn")
    assert output_digest(scenario, tmp_path) == FIXTURE_DIGESTS[name]


@pytest.mark.parametrize("seed", sorted(GENERATED_DIGESTS))
def test_generated_output_bytes(seed, tmp_path):
    assert output_digest(random_scenario(seed), tmp_path) == GENERATED_DIGESTS[seed]


_SYSTEM = """\
[system]
freq = 2.8 ghz, 166 w, 1.0, 150 w, 1.0
freq = 2.1 ghz, 148 w, 1.2, 142 w, 1.1
freq = 1.7 ghz, 139 w, 1.5, 131 w, 1.2
freq = 1.2 ghz, 126 w, 2.1, 125 w, 1.4, 94.5 w
t_go_sleep = 25 s
t_wakeup = 5 s
p_go_sleep = 51 w
p_wakeup = 91 w
p_sleep = 12 w
p_idle_wait = 60 w
mu1 = 7.0
mu2 = 0.9
"""


def halo_chain_scenario():
    """8-node non-blocking halo chain, 12 steps of 60 s; node 4 fails at
    300.05 s, after its own checkpoint and while node 5 checkpoints, so its
    restart replays posts whose peers have not posted yet. Depth 3."""
    nodes, step, steps = 8, 60.0, 12
    lines = [_SYSTEM, "[pattern]", f"nodes = {nodes}", "wait_mode = active",
             "mpi_mode = nonblocking", "buffered = off", "message_size = 4096",
             f"interval = {step} s", f"repetition = {step} s"]
    until = step * (steps - 1)
    for i in range(nodes):
        posts = []
        if i > 0:
            posts += [("send", i - 1, 1.0), ("recv", i - 1, 1.2)]
        if i < nodes - 1:
            posts += [("send", i + 1, 1.1), ("recv", i + 1, 1.3)]
        for direction, peer, at in posts:
            lines.append(f"op = {i} {direction} {peer} @ {at} s wait @ {at + 40.0:.1f} s"
                         f" every {step} s until {until + at:.1f} s")
    lines += ["[checkpoint]", "interval = 1000 s", "duration = 100 s", "anticipation = off"]
    offsets = [700, 600, 500, 650, 50, 215, 800, 900]
    lines += [f"offset = {i}: {o} s" for i, o in enumerate(offsets)]
    lines += ["[failure]", "node = 4", "time = 300.05 s", "restart = 30 s",
              "[run]", "horizon = 4000 s", "depth = 3"]
    return loads_scenario("\n".join(lines), "halo_chain_8")


def master_worker_scenario():
    """Blocking master-worker: the master hands 6 workers a task each per
    200 s stage and collects the results; the master fails in stage 3."""
    workers, stages, stage, work = 6, 5, 200.0, 80.0
    lines = [_SYSTEM, "[pattern]", f"nodes = {workers + 1}", "wait_mode = active",
             "mpi_mode = blocking", "buffered = off", "message_size = 1024",
             f"interval = {stage} s", f"repetition = {stage} s"]
    last = stage * (stages - 1)
    for k in range(1, workers + 1):
        send, recv = 2.0 * k, 100.0 + 2.0 * k
        lines.append(f"op = 0 send {k} @ {send} s every {stage} s until {last + send} s")
        lines.append(f"op = 0 recv {k} @ {recv} s every {stage} s until {last + recv} s")
    cycle = work + 1.0
    for k in range(1, workers + 1):
        lines.append(f"op = {k} recv 0 @ 1.0 s every {cycle} s until {1.0 + cycle * (stages - 1)} s")
        lines.append(f"op = {k} send 0 @ {cycle} s every {cycle} s until {cycle * stages} s")
    lines += ["[checkpoint]", "interval = 1500 s", "duration = 40 s", "anticipation = off"]
    offsets = [900, 100, 300, 500, 700, 1100, 1300]
    lines += [f"offset = {i}: {o} s" for i, o in enumerate(offsets)]
    lines += ["[failure]", "node = 0", "time = 430.5 s", "restart = 60 s",
              "[run]", "horizon = 5000 s", "depth = 1"]
    return loads_scenario("\n".join(lines), "master_worker_6")


def horizon_cut_scenario():
    """A fixture whose horizon falls after the failure-free makespan
    (1568.4 s) but before the reference one (1705.4 s)."""
    s = load_scenario(FIXTURES / "scenario7_short_nonblocking.scn")
    return replace(s, horizon=1650.0)


SHAPED = {
    "halo_chain_8": halo_chain_scenario,
    "master_worker_6": master_worker_scenario,
    "horizon_cut": horizon_cut_scenario,
}

SHAPED_DIGESTS = {
    "halo_chain_8": "0b0a63eb0a8f1d4a711a033c388e6dfc020f40e913da493a3bbecad36898b97e",
    "horizon_cut": "ebdbe77d76535953c4d935f3066a5ffe9207948b6449e9274f12b52323b573e2",
    "master_worker_6": "c874cb393ef7a669388597a7d3d9760f4a214765acdb969958ee4f11f3e14338",
}


@pytest.mark.parametrize("name", sorted(SHAPED_DIGESTS))
def test_shaped_output_bytes(name, tmp_path):
    assert output_digest(SHAPED[name](), tmp_path) == SHAPED_DIGESTS[name]


# The benchmark's own scenarios (``perfbench/workloads.py``, read as it is):
# report plus trace of the 64-node halo_chain and of each master_worker
# scenario, at seeds 1 and 2.
BENCHMARK_DIGESTS = {
    "halo_chain-1": "d5e47d4b73f179f3e52359ec0612bda962f6dcbec52701264c1717212184e2b8",
    "halo_chain-2": "61efc464b66a62cf3207f366c63950c9b8eb0cf2f9b7aca687da120ad9bac00e",
    "master_worker-1-0": "f56129969f5c381f4bfc121934276cfc9c1d43fd9f57bf97e963b7f19d9fff47",
    "master_worker-1-1": "5bccae179420736b479f99fe490ad377dbb0490390709cd346092d22de77c397",
    "master_worker-1-2": "d1339d47b301c128d8d05fd5e4d121a44deb51fe9d33deff97043635d34120a0",
    "master_worker-1-3": "93a7a48654c114d62e75761b1962ec340e464738c7ccafb464ceb1ec0ad4a50e",
    "master_worker-2-0": "e6894a79cbdd3560b938ae234f0831c30f63ee464013799965661d0da3369be5",
    "master_worker-2-1": "d3324e2f50913649aa3af59935d8f18d708c66a89f2644e781986a2110aab13f",
    "master_worker-2-2": "a3c654954b2f7e162c743bb51c9c513b0b93cb8a462ba2c8c2cef4b087a2efee",
    "master_worker-2-3": "02cace3e4b4e0db2d16e33b25705c1d2979e59e637e5287e716de8be5e07ac3a",
}


def benchmark_workloads():
    """``perfbench/workloads.py`` as a module of its own, not on the path."""
    path = FIXTURES.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_scenario_is_pinned():
    batch = benchmark_workloads().MASTER_WORKER["batch"]
    names = [f"halo_chain-{seed}" for seed in (1, 2)]
    names += [f"master_worker-{seed}-{j}" for seed in (1, 2) for j in range(batch)]
    assert sorted(BENCHMARK_DIGESTS) == sorted(names)


@pytest.mark.parametrize("name", sorted(BENCHMARK_DIGESTS))
def test_benchmark_output_bytes(name, tmp_path):
    workloads = benchmark_workloads()
    workload, seed, *j = name.split("-")
    if workload == "halo_chain":
        text = workloads.halo_chain(int(seed))
    else:  # the benchmark numbers seed's scenarios seed·1000 + j
        text = workloads.master_worker(int(seed) * 1000 + int(j[0]))
    assert output_digest(loads_scenario(text, name), tmp_path) == BENCHMARK_DIGESTS[name]


def test_halo_chain_covers_waits_and_replay(monkeypatch):
    replayed = []
    schedule = EventQueue.schedule

    def spy(queue, time, kind, node, payload=None, **kwargs):
        if kind is _Engine._on_replay:
            replayed.append(node)
        return schedule(queue, time, kind, node, payload, **kwargs)

    monkeypatch.setattr(EventQueue, "schedule", spy)
    result = simulate_detailed(halo_chain_scenario())
    assert replayed and set(replayed) == {4}
    assert max(e.level for e in result.estimates) >= 2
    assert any(getattr(t, "state", "") == "WAIT_ACTIVE" for t in result.trace)


def pass_counts(scenario, monkeypatch, physical=False) -> list[tuple[int, int, int]]:
    """(scheduled, processed, cancelled) per engine pass, in pass order.

    Processed events are those the queue hands out at or before the horizon;
    cancelled ones are the cancel calls that removed a pending event. Passes
    2 and 3 resume from a copy of pass 1's queue at the failure instant, and
    a copied queue starts from its original's tally: the counts are logical,
    with the shared prefix counted in each pass. ``physical`` starts every
    queue from zero instead, counting the events the kernel handles."""
    queues: list[EventQueue] = []
    counts: list[list[int]] = []
    inherited: list[tuple[EventQueue, list[int]]] = []

    def tally_of(queue):
        for known, c in zip(queues, counts):
            if known is queue:
                return c
        for copied, c in inherited:
            if copied is queue:
                return c
        return [0, 0, 0]

    def tally(queue, field, n=1):
        for i, known in enumerate(queues):
            if known is queue:
                counts[i][field] += n
                return
        queues.append(queue)
        counts.append(list(tally_of(queue)))
        counts[-1][field] += n

    schedule, advance = EventQueue.schedule, EventQueue.advance
    cancel, copy = EventQueue.cancel, EventQueue.copy

    def counted_schedule(queue, *args, **kwargs):
        tally(queue, 0)
        return schedule(queue, *args, **kwargs)

    def counted_advance(queue, *args):
        ev = advance(queue, *args)
        if ev is not None:
            tally(queue, 1, ev.time <= scenario.horizon)
        return ev

    def counted_cancel(queue, event_id):
        done = cancel(queue, event_id)
        tally(queue, 2, done)
        return done

    def counted_copy(queue):
        twin = copy(queue)
        if not physical:
            inherited.append((twin, list(tally_of(queue))))
        return twin

    monkeypatch.setattr(EventQueue, "schedule", counted_schedule)
    monkeypatch.setattr(EventQueue, "advance", counted_advance)
    monkeypatch.setattr(EventQueue, "cancel", counted_cancel)
    monkeypatch.setattr(EventQueue, "copy", counted_copy)
    simulate_detailed(scenario)
    return [tuple(c) for c in counts]


# (scheduled, processed, cancelled) for pass 1, pass 2 and, with plans, pass 3.
# With strategies, pass 2 also handles its rejoin record's event once every
# estimated process has had its first delayed wait, and a pass 3 that
# rejoins pass 2 counts only its events before the rejoin key.
EVENT_COUNTS = {
    "scenario1_long": [(43, 42, 1), (53, 47, 6), (42, 32, 2)],
    "scenario1_short": [(42, 38, 4), (45, 40, 5), (47, 39, 8)],
    "scenario2_blocking": [(39, 38, 1), (42, 40, 2), (30, 24, 2)],
    "scenario2_nonblocking": [(14, 13, 1), (17, 15, 2), (16, 13, 3)],
    "scenario3_active": [(180, 179, 1), (182, 180, 2), (184, 179, 5)],
    "scenario3_idle": [(180, 179, 1), (182, 180, 2), (184, 179, 5)],
    "scenario4_buffered": [(14, 13, 1), (17, 15, 2)],
    "scenario4_unbuffered": [(21, 20, 1), (25, 23, 2), (29, 20, 2)],
    "scenario5": [(78, 77, 1), (82, 80, 2), (83, 76, 2)],
    "scenario6_anticipated": [(43, 42, 1), (56, 50, 6), (45, 35, 2)],
    "scenario6_plain": [(43, 42, 1), (53, 47, 6), (42, 32, 2)],
    "scenario7_long": [(54, 53, 1), (56, 54, 2), (41, 32, 2)],
    "scenario7_short_blocking": [(54, 53, 1), (56, 54, 2), (58, 53, 5)],
    "scenario7_short_nonblocking": [(19, 18, 1), (23, 21, 2), (24, 12, 5)],
    "seed0": [(16, 15, 1), (20, 18, 2), (24, 18, 2)],
    "seed1": [(14, 13, 1), (22, 20, 2), (16, 11, 2)],
    "seed2": [(19, 18, 1), (23, 21, 2), (21, 16, 2)],
    "seed3": [(27, 26, 1), (30, 28, 2), (35, 31, 4)],
    "seed4": [(19, 18, 1), (22, 20, 2), (24, 19, 2)],
    "seed5": [(51, 50, 1), (52, 50, 2), (55, 49, 6)],
    "seed6": [(59, 58, 1), (60, 58, 2), (40, 33, 2)],
    "seed7": [(45, 44, 1), (47, 45, 2), (50, 45, 5)],
    "halo_chain_8": [(113, 107, 6), (137, 132, 5), (70, 51, 3)],
    "master_worker_6": [(84, 83, 1), (91, 90, 1), (76, 66, 1)],
    "horizon_cut": [(16, 15, 1), (19, 13, 2), (21, 12, 5)],
}


def _counted_scenario(name):
    if name in FIXTURE_DIGESTS:
        return load_scenario(FIXTURES / f"{name}.scn")
    if name in SHAPED:
        return SHAPED[name]()
    return random_scenario(int(name.removeprefix("seed")))


def test_every_scenario_has_event_counts():
    names = [*FIXTURE_DIGESTS, *SHAPED, *(f"seed{s}" for s in GENERATED_DIGESTS)]
    assert sorted(EVENT_COUNTS) == sorted(names)


@pytest.mark.parametrize("name", sorted(EVENT_COUNTS))
def test_event_counts_per_pass(name, monkeypatch):
    assert pass_counts(_counted_scenario(name), monkeypatch) == EVENT_COUNTS[name]


def test_forked_passes_hand_out_the_prefix_once(monkeypatch):
    """The kernel handles the events before the failure once, in pass 1: on
    halo_chain_8, passes 2 and 3 each hand out their logical count less that
    prefix (46 scheduled, 30 processed, 2 cancelled). A node's next
    checkpoint trigger is queued when its last one fires, so a fork queues
    the triggers after the failure itself. Pass 3 rejoins pass 2 at 561.45
    s, so it hands out only the events from the failure to there."""
    physical = pass_counts(halo_chain_scenario(), monkeypatch, physical=True)
    assert physical == [(113, 107, 6), (91, 102, 3), (24, 21, 1)]
    logical = EVENT_COUNTS["halo_chain_8"]
    for (s, p, c), (s1, p1, c1) in zip(logical[1:], physical[1:]):
        assert (s - s1, p - p1, c - c1) == (46, 30, 2)


# -- the reference run's output: ``ftsim run --no-strategies`` --------------

# report plus trace with strategies off, so the trace written is pass 2's
NO_STRATEGY_DIGESTS = {
    "scenario1_long": "e31bbfa0055ad31407b7bcbc051db55b44faf320ddc2309fc4e53f74e7deaeb8",
    "scenario1_short": "75c489a42dde05af47fb00460509ca11a9a34947bfe24a4bed1d0b3898924777",
    "scenario2_blocking": "57d99bd283e44e047a6e32750a0b3226ef205f91be4456935069f3a86f98ca5a",
    "scenario2_nonblocking": "ed284a0fd495b9ead33540d770d7eabce850cd1d14242150bfa037895d829077",
    "scenario3_active": "535307928d1d743ed35dd6317dba1420ac1b7af2ca95741f5e512786f921de5b",
    "scenario3_idle": "b59a4238a535fc6100665598fbc3ced74bfb0bd392d75647427905225863ba64",
    "scenario4_buffered": "cb780a3200c935d035cdc9e37e6a7cca065bb3492a26f77c88541f34c8d21975",
    "scenario4_unbuffered": "a8d03047b9d6b8acdbe1e01821ee25d7bd63b1bea9f16017c1f4e7700e63e278",
    "scenario5": "b60c651a2ce6e1959e9f8f476d61aa0c26f3adbfe26e0141840970f8131e3d0c",
    "scenario6_anticipated": "84f83450a9ef4c8c1f55b57a4c22bbda07e899b3772e71685e33dee217d4ecbe",
    "scenario6_plain": "e31bbfa0055ad31407b7bcbc051db55b44faf320ddc2309fc4e53f74e7deaeb8",
    "scenario7_long": "3e333919402d19eb8876b888bb80be772761fce49a864e37022ba32f85481126",
    "scenario7_short_blocking": "8b34a68597f74705f98c93759df689367b2bf3e39dc50d1f9d82d7fb69086e04",
    "scenario7_short_nonblocking": "12b174ae6a590aefde8ff0714392eeeb62e2e24506c6741ca9be861892198628",
    "halo_chain_8": "1aa19e3d688366f6f662ead6db48e43d743e9118c0eb11a415d8b5fe1179c58d",
    "horizon_cut": "ef90c5d83ea97f41587f663e38b2a6ed30ac96b0ecc2374c2166271fb45d8dfc",
    "master_worker_6": "22d402166f8838ac092699c1770014f5dfbb9c458e4b8105fee7f7dba28b485b",
}


def test_every_fixture_and_shape_is_pinned_without_strategies():
    assert sorted(NO_STRATEGY_DIGESTS) == sorted([*FIXTURE_DIGESTS, *SHAPED])


@pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
def test_fixture_output_bytes_without_strategies(name, tmp_path):
    from ftsim import cli

    report, trace = tmp_path / "run.csv", tmp_path / "run.trace"
    argv = ["run", str(FIXTURES / f"{name}.scn"), "--no-strategies",
            "--report", str(report), "--trace", str(trace)]
    assert cli.main(argv) == 0
    digest = hashlib.sha256(report.read_bytes() + b"\0" + trace.read_bytes()).hexdigest()
    assert digest == NO_STRATEGY_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SHAPED))
def test_shaped_output_bytes_without_strategies(name, tmp_path):
    scenario = replace(SHAPED[name](), strategies_enabled=False)  # as --no-strategies sets it
    assert output_digest(scenario, tmp_path) == NO_STRATEGY_DIGESTS[name]


# -- the reference run's delayed waits, which the strategies plan -------------


def reference_waits_digest(scenario) -> str:
    """sha256 of each planned node's first delayed reference wait, as
    (node, op index, is_wait, begin, end) in node order."""
    waits = simulate_detailed(scenario).reference_waits
    rows = [
        (n, w.milestone >> 1, bool(w.milestone & 1), w.begin, w.end)  # 2·op index + is_wait
        for n, w in sorted(waits.items())
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


REFERENCE_WAIT_DIGESTS = {
    "halo_chain_8": "ae757991fee2889496fc4488ed3afc400b88e07a6476e3fb5bef3c5ed20d9bd6",
    "horizon_cut": "c3c9dfa161fb58ee31fb83d5eeb5d435466b84794c96843940a73b8a5aff8fb9",
    "master_worker_6": "59a48fbc2cdf52a4c2756421a6d205586d5a643773a155979636ae5d285f767c",
    "scenario1_long": "bc4d34a7fe36258f7e7b9de1f3ae36e58e2e10c57fc0bcc641fcf9e34894a1b1",
    "scenario1_short": "2944964af9515fa67a3581d197cd67ab295cb0fc883435a152b5e5222e7903c0",
    "scenario2_blocking": "c5d2658e1ce223abf44c26568350797ccd5f3fadd094b4cd28cd3e486b9a85bb",
    "scenario2_nonblocking": "12068eb90f0365890d3fb2a05065c3825fd9f3e644f4c2d4d18ebdb0d46f560f",
    "scenario3_active": "7fb3f29dedd7de1ba2c25b6ccae9f0355cbe9bc0507617a62853bf7fdd320d21",
    "scenario3_idle": "7fb3f29dedd7de1ba2c25b6ccae9f0355cbe9bc0507617a62853bf7fdd320d21",
    "scenario4_buffered": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "scenario4_unbuffered": "ddc9c567beeb43e393a1d3404c1a772f65aed78290b67bd484b1a066aff91188",
    "scenario5": "884c9c081ef2318d3e84d96ad8ebeee06f49eaa1501ac594771d666015bf87f0",
    "scenario6_anticipated": "bc4d34a7fe36258f7e7b9de1f3ae36e58e2e10c57fc0bcc641fcf9e34894a1b1",
    "scenario6_plain": "bc4d34a7fe36258f7e7b9de1f3ae36e58e2e10c57fc0bcc641fcf9e34894a1b1",
    "scenario7_long": "40136748e1b05b2ba3332a496c27864e8a08292c5fc26b03273ff8a6197b210f",
    "scenario7_short_blocking": "f043b39f711870bf58f90df53158097d1da657b1db54c5000620d003bc0b3692",
    "scenario7_short_nonblocking": "c3c9dfa161fb58ee31fb83d5eeb5d435466b84794c96843940a73b8a5aff8fb9",
    "seed0": "9cfdcb7a9205ad81a4edd8c975f9de8d199730ec7e1e979b511b86122b41db97",
    "seed1": "cafb3f3018ebc86d09bb57729d4b4b7a97c93ff4bcb44d7f7277bab26a3c23ad",
    "seed2": "02172db381bc1e5fbf94a55e19933689cd394b98406360153c328d2f9a9bdea0",
    "seed3": "d048d92286d515ea8fcbb1d7fdb8fc0e8b2a1649f16bdf0c1400b790424891d2",
    "seed4": "f5f2586457614cb34d3102c26ff955260fda3165941d21bfba1f4ea09ae7bcb7",
    "seed5": "cdcb8347b7a98ccf75effaab0b20f7aa1a990e82c05a6f84917943aebe64e94b",
    "seed6": "1add2fd17941c4cab12544f8600834f07d32db7cc4a5e4f3e6f50bd3739ab4ad",
    "seed7": "c0067c00c709a8a34466542877d185b2431232840f955416f30aae32a21290cb",
}


def test_every_scenario_has_reference_waits():
    assert sorted(REFERENCE_WAIT_DIGESTS) == sorted(EVENT_COUNTS)


@pytest.mark.parametrize("name", sorted(REFERENCE_WAIT_DIGESTS))
def test_reference_waits(name):
    assert reference_waits_digest(_counted_scenario(name)) == REFERENCE_WAIT_DIGESTS[name]
