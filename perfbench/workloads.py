"""Scenario generators for the benchmark's synthetic workloads.

Standard library only. Each generator turns a seed into ``.scn`` text: the
same seed always gives byte-identical text, and the text is what the
benchmark hands to ``ftsim run``, so parsing is part of what is measured.
"""

from __future__ import annotations

import random

# Four P-states of the calibrated fixtures (scenarios/scenario7_*.scn).
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

#: 1-D non-blocking halo exchange: every step each node posts an Isend and
#: an Irecv per neighbour, computes, then waits on all four.
HALO_CHAIN = {
    "nodes": 64,
    "steps": 50,
    "step_s": 60.0,
    "wait_lag_s": 40.0,
    "ckpt_interval_s": 1500.0,
    "ckpt_duration_s": 60.0,
    "failure_time_s": 1530.5,
    "restart_s": 150.0,
    "horizon_s": 12000.0,
}

#: One master, blocking task/result exchanges with every worker per stage;
#: ``batch`` scenarios, each from its own seed, make one pass.
MASTER_WORKER = {
    "workers": 60,
    "stages": 10,
    "stage_s": 390.0,
    "task_gap_s": 2.0,
    "collect_s": 200.0,
    "work_s": 150.0,
    "ckpt_interval_s": 3600.0,
    "ckpt_duration_s": 120.0,
    "restart_s": 120.2,
    "failure_stage": 4,
    "horizon_s": 30000.0,
    "batch": 4,
}


def _fmt(x: float) -> str:
    return f"{x:.1f}"


def halo_chain(seed: int) -> str:
    """Halo exchange on a chain; the middle node fails. Checkpoint offsets
    are uncoordinated and drawn from ``seed``; the depth is ``auto``."""
    p = HALO_CHAIN
    rng = random.Random(f"halo_chain:{seed}")
    n, steps, step = p["nodes"], p["steps"], p["step_s"]
    until = step * (steps - 1)
    lines = [
        f"# halo_chain seed={seed}: {n} nodes x {steps} non-blocking halo steps",
        "",
        _SYSTEM,
        "[pattern]",
        f"nodes = {n}",
        "wait_mode = active",
        "mpi_mode = nonblocking",
        "buffered = off",
        "message_size = 4096",
        f"interval = {_fmt(step)} s",
        f"repetition = {_fmt(step)} s",
    ]
    for i in range(n):
        # post offsets within a step must differ; waits follow the compute
        posts = []
        if i > 0:
            posts.append(("send", i - 1, 1.0))
            posts.append(("recv", i - 1, 1.2))
        if i < n - 1:
            posts.append(("send", i + 1, 1.1))
            posts.append(("recv", i + 1, 1.3))
        for direction, peer, at in posts:
            wait = at + p["wait_lag_s"]
            lines.append(
                f"op = {i} {direction} {peer} @ {_fmt(at)} s wait @ {_fmt(wait)} s"
                f" every {_fmt(step)} s until {_fmt(until + at)} s"
            )
    lines += [
        "",
        "[checkpoint]",
        f"interval = {_fmt(p['ckpt_interval_s'])} s",
        f"duration = {_fmt(p['ckpt_duration_s'])} s",
        "anticipation = off",
    ]
    for i in range(n):
        lines.append(f"offset = {i}: {_fmt(rng.uniform(0.0, p['ckpt_interval_s']))} s")
    lines += [
        "",
        "[failure]",
        f"node = {n // 2}",
        f"time = {_fmt(p['failure_time_s'])} s",
        f"restart = {_fmt(p['restart_s'])} s",
        "",
        "[run]",
        f"horizon = {_fmt(p['horizon_s'])} s",
        "depth = auto",
        "",
    ]
    return "\n".join(lines)


def master_worker(seed: int) -> str:
    """Master-worker stages; the master (node 0) fails. The checkpoint
    offsets and the failure instant are drawn from ``seed``."""
    p = MASTER_WORKER
    rng = random.Random(f"master_worker:{seed}")
    w, stages, stage = p["workers"], p["stages"], p["stage_s"]
    gap, collect, work = p["task_gap_s"], p["collect_s"], p["work_s"]
    lines = [
        f"# master_worker seed={seed}: 1 master, {w} workers x {stages} stages",
        "",
        _SYSTEM,
        "[pattern]",
        f"nodes = {w + 1}",
        "wait_mode = active",
        "mpi_mode = blocking",
        "buffered = off",
        "message_size = 1024",
        f"interval = {_fmt(stage)} s",
        f"repetition = {_fmt(stage)} s",
    ]
    last = stage * (stages - 1)
    # the master hands out tasks one by one, then collects the results
    for k in range(1, w + 1):
        send_at, recv_at = gap * k, collect + gap * k
        lines.append(
            f"op = 0 send {k} @ {_fmt(send_at)} s every {_fmt(stage)} s until {_fmt(last + send_at)} s"
        )
        lines.append(
            f"op = 0 recv {k} @ {_fmt(recv_at)} s every {_fmt(stage)} s until {_fmt(last + recv_at)} s"
        )
    # a worker's offsets count its own compute only: it waits for its task,
    # works on it, returns the result, and posts the next receive at once
    cycle = work + 1.0
    for k in range(1, w + 1):
        lines.append(
            f"op = {k} recv 0 @ 1.0 s every {_fmt(cycle)} s until {_fmt(1.0 + cycle * (stages - 1))} s"
        )
        lines.append(
            f"op = {k} send 0 @ {_fmt(cycle)} s every {_fmt(cycle)} s until {_fmt(cycle * stages)} s"
        )
    lines += [
        "",
        "[checkpoint]",
        f"interval = {_fmt(p['ckpt_interval_s'])} s",
        f"duration = {_fmt(p['ckpt_duration_s'])} s",
        "anticipation = off",
    ]
    for i in range(w + 1):
        lines.append(f"offset = {i}: {_fmt(rng.uniform(0.0, p['ckpt_interval_s']))} s")
    fail = stage * p["failure_stage"] + rng.uniform(0.0, stage)
    lines += [
        "",
        "[failure]",
        "node = 0",
        f"time = {_fmt(fail)} s",
        f"restart = {_fmt(p['restart_s'])} s",
        "",
        "[run]",
        f"horizon = {_fmt(p['horizon_s'])} s",
        "depth = 1",
        "",
    ]
    return "\n".join(lines)
