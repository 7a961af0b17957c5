from pathlib import Path

import pytest

from ftsim.energy import WaitMode
from ftsim.scenario import ParseError, ValidationError, dump_scenario, load_scenario, loads_scenario

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


def test_roundtrip_canonical_form():
    paths = sorted(FIXTURES.glob("*.scn"))
    assert len(paths) == 14
    for path in paths:
        s = load_scenario(path)
        again = loads_scenario(dump_scenario(s), name=s.name)
        assert again == s


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
