"""Seeded generator of pattern families for property tests.

Unlike ``scengen``, which makes only stars whose node 0 fails, a family
scenario is a ring, a chain, a tree, a star or a random connected graph of
3-9 nodes, run for 4-10 steps. In every step each edge carries one message,
in a random direction. Any node may fail, at any time of the run. The ops
are blocking or non-blocking; 30 % of the scenarios are buffered and 30 %
anticipate checkpoints. The analysis depth is 1, 2 or exhaustive, and the
profile and checkpoint duration come from ``test_energy.random_profile``.

Each step lays its messages out in one order shared by all nodes, so no
pattern deadlocks. A blocking op posts inside its message's slot of the
step, and each side of a message picks its own offset there, so one side
waits for the other. A non-blocking op posts in the step's first half and
waits in its second half.
"""

import random

from ftsim.cascade import DepthConfig
from ftsim.energy import WaitMode
from ftsim.fault import CheckpointPolicy, FailureSpec
from ftsim.scenario import Scenario

from oprows import op_pattern
from test_energy import random_profile

SHAPES = ("ring", "chain", "tree", "star", "random")
EXHAUSTIVE = 200  # no cut: a pair of nodes exchanges at most 10 messages


def _edges(rng: random.Random, shape: str, nodes: int) -> list[tuple[int, int]]:
    if shape == "ring":
        return [(i, (i + 1) % nodes) for i in range(nodes)]
    if shape == "chain":
        return [(i, i + 1) for i in range(nodes - 1)]
    if shape == "star":
        hub = rng.randrange(nodes)
        return [(hub, i) for i in range(nodes) if i != hub]
    # a random tree, and for a random graph some extra edges on top of it
    edges = {(rng.randrange(i), i) for i in range(1, nodes)}
    if shape == "random":
        for a in range(nodes):
            for b in range(a + 1, nodes):
                if rng.random() < 0.3:
                    edges.add((a, b))
    return sorted(edges)


def family_scenario(seed: int) -> Scenario:
    rng = random.Random(seed)
    shape = rng.choice(SHAPES)
    nodes = rng.randint(3, 9)
    steps = rng.randint(4, 10)
    edges = _edges(rng, shape, nodes)
    nonblocking = rng.random() < 0.5
    period = rng.choice([60.0, 120.0, 300.0, 600.0])
    slot = period / (2 * len(edges))

    rows: list[list[tuple]] = [[] for _ in range(nodes)]  # as ``oprows`` reads them
    for step in range(steps):
        base = step * period + 1.0
        for rank, (a, b) in enumerate(edges):
            sender, receiver = (a, b) if rng.random() < 0.5 else (b, a)
            for proc, peer, direction in ((sender, receiver, "send"), (receiver, sender, "recv")):
                post = round(base + (rank + rng.uniform(0.05, 0.95)) * slot, 3)
                wait = round(base + period / 2 + rng.uniform(0.0, 0.45) * period, 3)
                rows[proc].append((peer, direction, post, wait if nonblocking else None))
    pattern = op_pattern(
        rows,
        buffered=rng.random() < 0.3,
        wait_mode=rng.choice([WaitMode.ACTIVE, WaitMode.IDLE]),
    )

    profile, duration = random_profile(rng)
    duration = round(duration, 1)
    interval = round(rng.uniform(2.0, 6.0) * max(period, duration), 1)
    run = steps * period
    restart = round(rng.uniform(5.0, period), 1)
    ckpt = CheckpointPolicy(
        interval=interval,
        duration=duration,
        anticipation_enabled=rng.random() < 0.3,
        anticipation_fraction=round(rng.uniform(0.05, 0.9), 2),
        phase_offsets={node: round(rng.uniform(0.0, interval), 1) for node in range(nodes)},
    )
    failure = FailureSpec(
        node=rng.randrange(nodes),
        time=round(rng.uniform(0.05, 0.9) * run, 1),
        restart_duration=restart,
    )
    scenario = Scenario(
        name=f"family-{seed}-{shape}",
        profile=profile,
        pattern=pattern,
        ckpt=ckpt,
        failure=failure,
        depth=DepthConfig(rng.choice([1, 2, EXHAUSTIVE])),
        horizon=round(3.0 * run + restart + 2.0 * interval, 1),
        strategies_enabled=True,
    )
    scenario.validate()
    return scenario
