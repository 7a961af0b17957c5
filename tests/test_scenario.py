import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from ftsim import scenario
from ftsim.energy import WaitMode
from ftsim.scenario import ParseError, ValidationError, load_scenario, loads_scenario

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
[system]
freq = 2.8 ghz, 166 w, 1.0, 150 w, 1.0
freq = 1.2 ghz, 126 w, 2.1, 125 w, 1.4

[pattern]
nodes = 2
wait_mode = active
mpi_mode = blocking
op = 0 send 1 @ 10 s
op = 1 recv 0 @ 10 s

[checkpoint]
interval = 100 s
duration = 10 s
offset = 0: 20 s

[failure]
node = 0
time = 50 s
restart = 5 s

[run]
horizon = 200 s
depth = 1
"""


def test_load_scenario1_fixture():
    s = load_scenario(FIXTURES / "scenario1_short.scn")
    assert s.nodes == 4
    assert s.pattern.interval == pytest.approx(1296.0)
    assert s.pattern.wait_mode is WaitMode.ACTIVE
    assert s.profile.level(1.2).p_active_wait == pytest.approx(94.5)
    assert s.ckpt.duration == pytest.approx(120.0)
    assert s.failure.node == 0
    assert len(s.pattern.processes[0]) == 15
    assert len(s.pattern.processes[1]) == 5


def test_minute_conversion():
    s = loads_scenario(MINIMAL.replace("time = 50 s", "time = 2 min"))
    assert s.failure.time == 120.0


def test_validation_failure_node_out_of_range():
    with pytest.raises(ValidationError):
        loads_scenario(MINIMAL.replace("node = 0", "node = 7"))


def test_duplicate_key_is_parse_error():
    with pytest.raises(ParseError, match="duplicate key 'horizon' in \\[run\\]"):
        loads_scenario(MINIMAL + "horizon = 2 s\n")


def test_missing_section():
    with pytest.raises(ParseError, match="missing section \\[failure\\]"):
        loads_scenario(MINIMAL.replace("[failure]\nnode = 0\ntime = 50 s\nrestart = 5 s\n", ""))


@pytest.mark.parametrize(
    "anchor, bad, section",
    [
        ("offset = 0: 20 s", "anticipaton = on", "checkpoint"),  # misspelled
        ("restart = 5 s", "horizon = 300 s", "failure"),  # a key of another section
    ],
)
def test_unknown_key_names_its_line(anchor, bad, section):
    text = MINIMAL.replace(anchor, f"{anchor}\n{bad}")
    line = text.splitlines().index(bad) + 1
    key = bad.split()[0]
    with pytest.raises(ParseError, match=f"line {line}: unknown key '{key}' in \\[{section}\\]"):
        loads_scenario(text)


def test_unknown_section_names_its_line():
    text = MINIMAL + "\n[nonsense]\nhorizon = 1 s\n"
    line = text.splitlines().index("[nonsense]") + 1
    with pytest.raises(ParseError, match=f"line {line}: unknown section \\[nonsense\\]"):
        loads_scenario(text)


def test_horizon_must_exceed_failure():
    with pytest.raises(ValidationError):
        loads_scenario(MINIMAL.replace("horizon = 200 s", "horizon = 40 s"))


def test_bad_beta_monotonicity():
    bad = MINIMAL.replace("freq = 1.2 ghz, 126 w, 2.1, 125 w, 1.4", "freq = 1.2 ghz, 126 w, 0.9, 125 w, 1.4")
    with pytest.raises(ValidationError):
        loads_scenario(bad)


def test_auto_depth_resolves():
    s = loads_scenario(MINIMAL.replace("depth = 1", "depth = auto"))
    assert s.depth.depth == 1


def test_every_until_expansion():
    s = loads_scenario(MINIMAL.replace(
        "op = 0 send 1 @ 10 s", "op = 0 send 1 @ 10 s every 10 s until 30 s"
    ).replace(
        "op = 1 recv 0 @ 10 s", "op = 1 recv 0 @ 10 s every 10 s until 30 s"
    ))
    assert [op.post_time_offset for op in s.pattern.processes[0]] == [10.0, 20.0, 30.0]


def test_nonblocking_mode_without_wait_clause():
    s = loads_scenario(MINIMAL.replace("mpi_mode = blocking", "mpi_mode = nonblocking"))
    op = s.pattern.processes[0][0]
    assert op.wait_offset == op.post_time_offset


def test_unmatched_ops_rejected():
    with pytest.raises(ValidationError):
        loads_scenario(MINIMAL.replace("op = 1 recv 0 @ 10 s", "op = 1 recv 0 @ 10 s every 10 s until 20 s"))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("op = 0 send 1 @ 10 s", "op = 0 send 1 @ 10 s every 0 s until 30 s",
         "'every' needs a positive step"),
        ("op = 0 send 1 @ 10 s", "op = 0 send 1 @ 10 s every -10 s until 30 s",
         "'every' needs a positive step"),
        ("time = 50 s", "time = nan s", "number 'nan' is not finite"),
        ("horizon = 200 s", "horizon = inf s", "number 'inf' is not finite"),
        ("duration = 10 s", "duration = -inf s", "number '-inf' is not finite"),
        ("op = 0 send 1 @ 10 s", "op = 0 send 1 @ nan s", "number 'nan' is not finite"),
        ("time = 50 s", "time = 50 s 70 s", "unexpected '70' after the number"),
        ("time = 50 s", "time = 50 parsecs", "unknown unit 'parsecs'"),
        ("nodes = 2", "nodes = 2.7", "expected an integer, got '2.7'"),
        ("node = 0", "node = 0.9", "expected an integer, got '0.9'"),
        ("depth = 1", "depth = 1.5", "expected an integer, got '1.5'"),
        ("depth = 1", "depth = 0", "depth must be 'auto' or an integer >= 1"),
        ("offset = 0: 20 s", "offset = 5: 20 s", "offset process 5 outside 0..1"),
        ("op = 0 send 1 @ 10 s", "op = 0 send 2 @ 10 s", "op peer 2 outside 0..1"),
        ("op = 1 recv 0 @ 10 s", "op = 3 recv 0 @ 10 s", "op process 3 outside 0..1"),
        ("mpi_mode = blocking", "mpi_mode = bogus",
         "mpi_mode must be one of blocking \\| nonblocking, got 'bogus'"),
        ("wait_mode = active", "wait_mode = busy", "wait_mode must be one of active \\| idle"),
    ],
)
def test_bad_value_names_its_line(old, new, message):
    assert MINIMAL.count(old) == 1
    text = MINIMAL.replace(old, new)
    line = text.splitlines().index(new) + 1
    with pytest.raises(ParseError, match=f"^line {line}: {message}"):
        loads_scenario(text)


@pytest.mark.parametrize(
    "drop, header, message",
    [
        ("restart = 5 s\n", "[failure]", "missing key 'restart' in \\[failure\\]"),
        ("freq = 2.8 ghz, 166 w, 1.0, 150 w, 1.0\nfreq = 1.2 ghz, 126 w, 2.1, 125 w, 1.4\n",
         "[system]", "\\[system\\] needs at least one freq row"),
    ],
)
def test_missing_value_names_its_section_header(drop, header, message):
    text = MINIMAL.replace(drop, "")
    line = text.splitlines().index(header) + 1
    with pytest.raises(ParseError, match=f"^line {line}: {message}"):
        loads_scenario(text)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("nodes = 2", "nodes = 100000000", "nodes = 100000000 is past the limit of 1000000"),
        ("op = 0 send 1 @ 10 s", "op = 0 send 1 @ 10 s every 1e-3 s until 1e9 s",
         "the ops expand past the limit of 1000000"),
    ],
)
def test_oversized_input_is_refused_before_it_is_built(old, new, message):
    text = MINIMAL.replace(old, new)
    line = text.splitlines().index(new) + 1
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"^line {line}: {message}$"):
            loads_scenario(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_step_too_small_to_move_the_post_stops_at_the_limit(monkeypatch):
    # 1e17 + 1 rounds back to 1e17, so the post never passes `until`
    monkeypatch.setattr(scenario, "SIZE_LIMIT", 1000)
    new = "op = 0 send 1 @ 1e17 s every 1 s until 1e17 s"
    text = MINIMAL.replace("op = 0 send 1 @ 10 s", new)
    line = text.splitlines().index(new) + 1
    with pytest.raises(ParseError, match=f"^line {line}: the ops expand past the limit of 1000$"):
        loads_scenario(text)


def test_ops_of_one_process_at_one_offset_are_rejected():
    """A process's ops need strictly increasing post offsets, so a Sendrecv
    or a halo step is written as two staggered ops."""
    text = MINIMAL.replace(
        "op = 0 send 1 @ 10 s", "op = 0 send 1 @ 10 s\nop = 0 recv 1 @ 10 s"
    ).replace("op = 1 recv 0 @ 10 s", "op = 1 recv 0 @ 10 s\nop = 1 send 0 @ 11 s")
    with pytest.raises(ValueError, match="^process 0: post offsets not strictly increasing at op 1$"):
        loads_scenario(text)
    staggered = text.replace("op = 0 recv 1 @ 10 s", "op = 0 recv 1 @ 11 s")
    assert [op.post_time_offset for op in loads_scenario(staggered).pattern.processes[0]] == [10.0, 11.0]


def test_checkpoint_triggers_past_the_limit_are_refused(monkeypatch):
    # 2 nodes x (10,000 s / 10 s + 1) timer steps
    monkeypatch.setattr(scenario, "SIZE_LIMIT", 1000)
    text = MINIMAL.replace("interval = 100 s", "interval = 10 s").replace("duration = 10 s", "duration = 1 s")
    s = loads_scenario(text)  # 2 x (200 s / 10 s + 1) steps
    assert [t for node in range(2) for t in s.ckpt.triggers(node, s.horizon)][:3] == [20.0, 30.0, 40.0]
    message = "^the checkpoint triggers up to the horizon are past the limit of 1000$"
    with pytest.raises(ValidationError, match=message):
        loads_scenario(text.replace("horizon = 200 s", "horizon = 10000 s"))
    with pytest.raises(ValidationError, match=message):  # as `ftsim run --horizon` sets it
        replace(s, horizon=10000.0).validate()


@pytest.mark.parametrize("offset, horizon", [("1e17 s", "1e17 s"), ("-1e17 s", "200 s")])
def test_a_checkpoint_interval_too_small_to_advance_is_refused(offset, horizon):
    # 1e17 + 1 s rounds back to 1e17 s: the timer would never pass the horizon
    text = (
        MINIMAL.replace("offset = 0: 20 s", f"offset = 0: {offset}")
        .replace("horizon = 200 s", f"horizon = {horizon}")
        .replace("interval = 100 s", "interval = 1 s")
        .replace("duration = 10 s", "duration = 0.5 s")
    )
    with pytest.raises(ValidationError, match="too small to advance process 0's timer"):
        loads_scenario(text)

