"""Random star-pattern scenario generator for property tests.

Every generated scenario keeps the failed node's posts on a shared exchange
grid (its op offsets absorb its one pre-failure checkpoint pause), so the
analysis, the reference run and the strategy run all see the same timeline.
"""

import random

from ftsim.cascade import DepthConfig
from ftsim.energy import WaitMode
from ftsim.fault import CheckpointPolicy, FailureSpec
from ftsim.scenario import Scenario

from oprows import op_pattern
from test_energy import random_profile


def random_scenario(seed: int) -> Scenario:
    rng = random.Random(seed)
    nodes = rng.randint(3, 5)
    interval = rng.choice([120.0, 300.0, 390.0, 600.0])
    n_ex = rng.randint(4, 7)
    nonblocking = rng.random() < 0.35
    duration = round(rng.uniform(10.0, interval * 0.3), 1)

    j_fail = rng.randint(2, n_ex - 2)
    prev_wall = interval * j_fail
    block_wall = interval * (j_fail + 1)
    ckpt_end = round(rng.uniform(prev_wall + duration + 5.0, block_wall - 10.0), 1)
    fail_time = round(rng.uniform(ckpt_end + 0.5, block_wall - 1.0), 1)
    restart = round(rng.uniform(20.0, 400.0), 1)

    walls = [interval * (k + 1) for k in range(n_ex)]
    horizon = walls[-1] + restart + (fail_time - ckpt_end) + interval * 2 + 3000.0

    processes: list[list[tuple]] = [[] for _ in range(nodes)]  # rows, as ``oprows`` reads them
    early = min(60.0, interval / 3.0)
    test_lag = round(rng.uniform(1.0, interval / 4.0), 1)

    for i in range(1, nodes):
        stagger = 0.2 * (i - 1)
        for k, wall in enumerate(walls):
            w = wall + stagger
            p0_offset = w - duration if w > ckpt_end else w
            if nonblocking:
                processes[0].append((i, "send", p0_offset, p0_offset + 2.0))
                processes[i].append((0, "recv", w - early, w + test_lag))
            else:
                processes[0].append((i, "send", p0_offset))
                processes[i].append((0, "recv", w))

    for rows in processes:
        rows.sort(key=lambda row: row[2])  # by post offset, stable

    pattern = op_pattern(
        processes,
        buffered=rng.random() < 0.3,
        wait_mode=rng.choice([WaitMode.ACTIVE, WaitMode.IDLE]),
    )

    profile, _ = random_profile(rng)
    offsets = {0: ckpt_end - duration}
    for i in range(1, nodes):
        offsets[i] = horizon + 500.0
    ckpt = CheckpointPolicy(
        interval=max(interval * 40.0, duration * 10.0),
        duration=duration,
        anticipation_enabled=False,
        phase_offsets=offsets,
    )
    scenario = Scenario(
        name=f"random-{seed}",
        profile=profile,
        pattern=pattern,
        ckpt=ckpt,
        failure=FailureSpec(node=0, time=fail_time, restart_duration=restart),
        depth=DepthConfig(rng.choice([1, 2, 5])),
        horizon=horizon,
        strategies_enabled=True,
    )
    scenario.validate()
    return scenario
