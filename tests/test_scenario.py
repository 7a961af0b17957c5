import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from ftsim import scenario
from ftsim.energy import FrequencyLevel, SystemProfile, WaitMode
from ftsim.pattern import UnmatchedOp
from ftsim.scenario import ParseError, ValidationError, load_scenario, loads_scenario

from oprows import op_columns, op_pattern, op_rows
from test_fault import trigger_times
from test_output_pins import FIXTURE_DIGESTS, output_digest

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
    assert s.pattern.wait_mode is WaitMode.ACTIVE
    assert s.profile.freqs[3].ghz == 1.2
    assert s.profile.freqs[3].p_active_wait == pytest.approx(94.5)
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


def test_a_repeated_frequency_names_both_rows():
    """A level is named by its GHz, so two rows of one GHz would load, run
    and print under one name: ``scenario3_active`` with its 1.7 GHz row
    moved to 2.1 GHz is refused on that row, naming the first."""
    text = (FIXTURES / "scenario3_active.scn").read_text()
    old, new = "freq = 1.7 ghz, 139 w, 1.5, 131 w, 1.2", "freq = 2.1 ghz, 139 w, 1.5, 131 w, 1.2"
    assert text.count(old) == 1
    lines = text.replace(old, new).splitlines()
    first, repeat = lines.index("freq = 2.1 ghz, 148 w, 1.2, 142 w, 1.1") + 1, lines.index(new) + 1
    with pytest.raises(ParseError, match=f"^line {repeat}: freq 2.1 GHz repeats the row on line {first}$"):
        loads_scenario("\n".join(lines))


def test_auto_depth_resolves():
    """``auto`` is the most ops any process holds, which no pair's
    candidates exceed: node 0's four, not the three of its densest pair."""
    auto = MINIMAL.replace("depth = 1", "depth = auto")
    assert loads_scenario(auto).depth.depth == 1
    s = loads_scenario(auto.replace("nodes = 2", "nodes = 3").replace(
        "op = 0 send 1 @ 10 s", "op = 0 send 1 @ 10 s every 10 s until 30 s\nop = 0 recv 2 @ 35 s"
    ).replace(
        "op = 1 recv 0 @ 10 s", "op = 1 recv 0 @ 10 s every 10 s until 30 s\nop = 2 send 0 @ 35 s"
    ))
    assert [len(ops) for ops in s.pattern.processes] == [4, 3, 1]
    assert s.depth.depth == 4


def test_every_until_expansion():
    s = loads_scenario(MINIMAL.replace(
        "op = 0 send 1 @ 10 s", "op = 0 send 1 @ 10 s every 10 s until 30 s"
    ).replace(
        "op = 1 recv 0 @ 10 s", "op = 1 recv 0 @ 10 s every 10 s until 30 s"
    ))
    assert list(s.pattern.processes[0].offsets[::2]) == [10.0, 20.0, 30.0]


def test_nonblocking_mode_without_wait_clause():
    s = loads_scenario(MINIMAL.replace("mpi_mode = blocking", "mpi_mode = nonblocking"))
    assert op_rows(s.pattern.processes[0]) == [(1, "send", 10.0, 10.0)]


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
    "old, new, message",
    [
        ("[system]", "[system]\np_sleep = 12 min", "a power value cannot take the time unit 'min'"),
        ("[system]", "[system]\nt_wakeup = 5 w", "a time value cannot take the power unit 'w'"),
        ("[system]", "[system]\nmu1 = 2 w", "a plain value cannot take the power unit 'w'"),
        ("freq = 1.2 ghz, 126 w, 2.1, 125 w, 1.4", "freq = 1.2 w, 126 w, 2.1, 125 w, 1.4",
         "a frequency value cannot take the power unit 'w'"),
        ("freq = 1.2 ghz, 126 w, 2.1, 125 w, 1.4", "freq = 1.2 ghz, 126 ghz, 2.1, 125 w, 1.4",
         "a power value cannot take the frequency unit 'ghz'"),
        ("freq = 1.2 ghz, 126 w, 2.1, 125 w, 1.4", "freq = 1.2 ghz, 126 w, 2.1 s, 125 w, 1.4",
         "a plain value cannot take the time unit 's'"),
        ("freq = 1.2 ghz, 126 w, 2.1, 125 w, 1.4", "freq = 1.2 ghz, 126 w, 2.1, 125 w, 1.4 min",
         "a plain value cannot take the time unit 'min'"),
        ("nodes = 2", "nodes = 4 s", "a plain value cannot take the time unit 's'"),
        ("wait_mode = active", "wait_mode = active\ninterval = 60 w",
         "a time value cannot take the power unit 'w'"),
        ("wait_mode = active", "wait_mode = active\nmessage_size = 4096 s",
         "a plain value cannot take the time unit 's'"),
        ("op = 0 send 1 @ 10 s", "op = 0 send 1 @ 10 w", "a time value cannot take the power unit 'w'"),
        ("op = 0 send 1 @ 10 s", "op = 0 send 1 @ 10 s every 10 GHz until 30 s",
         "a time value cannot take the frequency unit 'GHz'"),
        ("offset = 0: 20 s", "offset = 0: 20 w", "a time value cannot take the power unit 'w'"),
        ("offset = 0: 20 s", "offset = 20 ghz", "a time value cannot take the frequency unit 'ghz'"),
        ("[checkpoint]", "[checkpoint]\nalpha = 0.5 s", "a plain value cannot take the time unit 's'"),
        ("restart = 5 s", "restart = 199.8 w", "a time value cannot take the power unit 'w'"),
        ("horizon = 200 s", "horizon = 200 W", "a time value cannot take the power unit 'W'"),
        ("depth = 1", "depth = 2 min", "a plain value cannot take the time unit 'min'"),
    ],
)
def test_a_unit_of_another_kind_names_its_line(old, new, message):
    """A number takes only a unit of its own kind (time, power, frequency)
    or, when plain, none: a wrong-kind unit is not silently read as 1."""
    assert MINIMAL.count(old) == 1
    text = MINIMAL.replace(old, new)
    line = text.splitlines().index(new.splitlines()[-1]) + 1
    with pytest.raises(ParseError, match=f"^line {line}: {message}$"):
        loads_scenario(text)


@pytest.mark.parametrize(
    "old, new, bad, message",
    [
        ("time = 50 s", "time =", "time =", "expected a number"),
        ("time = 50 s", "time = soon", "time = soon", "bad number 'soon'"),
        ("[checkpoint]", "[checkpoint]\nanticipation = maybe", "anticipation = maybe",
         "bad boolean 'maybe'"),
        ("horizon = 200 s", "horizon = 200 s\n[run]", "[run]", "duplicate section [run]"),
        ("[system]", "stray = 1\n[system]", "stray = 1", "content before any section header"),
        ("horizon = 200 s", "horizon = 200 s\nstrategies", "strategies",
         "expected 'key = value', got 'strategies'"),
        ("op = 0 send 1 @ 10 s", "op = 0 shout 1 @ 10 s", "op = 0 shout 1 @ 10 s",
         "bad op spec '0 shout 1 @ 10 s'"),
        ("op = 0 send 1 @ 10 s", "op = 0 send 1 at 10 s", "op = 0 send 1 at 10 s",
         "op needs '@ <time>' '0 send 1 at 10 s'"),
        ("op = 0 send 1 @ 10 s", "op = 0 send 1 @ 10 s wait 12 s", "op = 0 send 1 @ 10 s wait 12 s",
         "wait needs '@ <time>'"),
        ("op = 0 send 1 @ 10 s", "op = 0 send 1 @ 10 s every 10 s", "op = 0 send 1 @ 10 s every 10 s",
         "'every' needs 'until <time>'"),
        ("op = 0 send 1 @ 10 s", "op = 0 send 1 @ 10 s later", "op = 0 send 1 @ 10 s later",
         "unexpected token 'later'"),
        ("freq = 1.2 ghz, 126 w, 2.1, 125 w, 1.4", "freq = 1.2 ghz, 126 w, 2.1, 125 w",
         "freq = 1.2 ghz, 126 w, 2.1, 125 w",
         "freq needs: ghz, p_comp, beta, p_ckpt, gamma [, p_active_wait]"),
        ("offset = 0: 20 s", "offset = x: 20 s", "offset = x: 20 s", "bad offset process 'x'"),
    ],
)
def test_a_malformed_line_is_named(old, new, bad, message):
    """Each parse error of the reader's own grammar names the line it is on:
    ``bad``, its last occurrence in the file."""
    assert MINIMAL.count(old) == 1
    lines = MINIMAL.replace(old, new).splitlines()
    line = len(lines) - lines[::-1].index(bad)
    with pytest.raises(ParseError, match=f"^line {line}: {re.escape(message)}$"):
        loads_scenario("\n".join(lines))


# the rules a part checks when it is built, each as a file edit of MINIMAL
# and as the part built directly: the per-op and FIFO rules of a pattern
# (its per-process rows) and the rules of a system profile (its arguments)
F_MAX, F_MIN = FrequencyLevel(2.8, 166.0, 1.0, 150.0, 1.0), FrequencyLevel(1.2, 126.0, 2.1, 125.0, 1.4)
PATTERN_RULES = [
    ("op = 0 send 1 @ 10 s\nop = 1 recv 0 @ 10 s",
     "op = 0 send 1 @ 10 s\nop = 0 send 1 @ 10 s\nop = 1 recv 0 @ 10 s\nop = 1 recv 0 @ 20 s",
     [[(1, "send", 10.0), (1, "send", 10.0)], [(0, "recv", 10.0), (0, "recv", 20.0)]],
     ValueError, "process 0: post offsets not strictly increasing at op 1"),
    ("op = 0 send 1 @ 10 s", "op = 0 send 1 @ 10 s wait @ 5 s",
     [[(1, "send", 10.0, 5.0)], [(0, "recv", 10.0)]],
     ValueError, "process 0: wait before post at op 0"),
    ("op = 0 send 1 @ 10 s", "op = 0 send 0 @ 10 s",
     [[(0, "send", 10.0)], [(0, "recv", 10.0)]],
     ValueError, "process 0: bad peer 0"),
    ("op = 1 recv 0 @ 10 s", "op = 1 recv 0 @ 10 s every 10 s until 20 s",
     [[(1, "send", 10.0)], [(0, "recv", 10.0), (0, "recv", 20.0)]],
     UnmatchedOp, "op 1 of process 1 (recv peer 0) has no match"),
]
PROFILE_RULES = [
    ("freq = 2.8 ghz, 166 w, 1.0, 150 w, 1.0", "freq = 2.8 ghz, 166 w, 1.1, 150 w, 1.0",
     {"freqs": (replace(F_MAX, beta=1.1), F_MIN)}, "maximum-frequency row must have beta = gamma = 1"),
    ("freq = 2.8 ghz, 166 w, 1.0, 150 w, 1.0", "freq = 2.8 ghz, 166 w, 1.0, 150 w, 0.9",
     {"freqs": (replace(F_MAX, gamma=0.9), F_MIN)}, "maximum-frequency row must have beta = gamma = 1"),
    ("freq = 1.2 ghz, 126 w, 2.1, 125 w, 1.4", "freq = 1.2 ghz, 126 w, 0.9, 125 w, 1.4",
     {"freqs": (F_MAX, replace(F_MIN, beta=0.9))}, "beta and gamma must not decrease as GHz decreases"),
    ("freq = 1.2 ghz, 126 w, 2.1, 125 w, 1.4", "freq = 1.2 ghz, 126 w, 2.1, 125 w, 0.9",
     {"freqs": (F_MAX, replace(F_MIN, gamma=0.9))}, "beta and gamma must not decrease as GHz decreases"),
    ("[system]", "[system]\nmu1 = 0.5", {"freqs": (F_MAX, F_MIN), "mu1": 0.5}, "mu1 must be >= 1"),
    ("[system]", "[system]\nmu2 = 0", {"freqs": (F_MAX, F_MIN), "mu2": 0.0}, "mu2 must be in (0, 1]"),
    ("[system]", "[system]\nmu2 = 1.5", {"freqs": (F_MAX, F_MIN), "mu2": 1.5}, "mu2 must be in (0, 1]"),
]
# a negative post, refused for its sign before the increasing check: well
# below 0, and just below it for both ops
NEGATIVE_POSTS = [
    ("op = 0 send 1 @ 10 s\nop = 1 recv 0 @ 10 s",
     f"op = 0 send 1 @ {send} s\nop = 1 recv 0 @ {recv} s",
     "process 0: negative post offset at op 0")
    for send, recv in (("-5", "10"), ("-0.5", "-0.5"))
]
# the checkpoint policy's and the failure's own rules, which only a file reaches
PART_RULES = [
    ("duration = 10 s", "duration = 100 s", "need 0 < duration < interval"),
    ("[checkpoint]", "[checkpoint]\nalpha = 0", "anticipation fraction must be in (0, 1]"),
    ("[checkpoint]", "[checkpoint]\nalpha = 1.5", "anticipation fraction must be in (0, 1]"),
    ("time = 50 s", "time = 0 s", "failure time must be positive"),
    ("restart = 5 s", "restart = -1 s", "restart duration must be non-negative"),
]


@pytest.mark.parametrize(
    "old, new, message",
    [(old, new, message) for old, new, _, _, message in PATTERN_RULES]
    + [(old, new, message) for old, new, _, message in PROFILE_RULES]
    + PART_RULES
    + NEGATIVE_POSTS,
)
def test_a_part_that_breaks_its_rule_is_a_validation_error(old, new, message):
    """A file whose pattern, profile, checkpoint policy or failure breaks one
    of its rules is refused with that rule's text, naming no line."""
    assert MINIMAL.count(old) == 1
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        loads_scenario(MINIMAL.replace(old, new))


@pytest.mark.parametrize(
    "rows, error, message",
    [(rows, error, message) for _, _, rows, error, message in PATTERN_RULES]
    + [([[(2, "send", 10.0)], [(0, "recv", 10.0)]], ValueError, "process 0: bad peer 2")]
    + [([[(1, "send", -5.0)], [(0, "recv", 10.0)]], ValueError,
        "process 0: negative post offset at op 0")],
)
def test_a_pattern_that_breaks_its_rule_is_refused_when_built(rows, error, message):
    """Built directly, or as a copy of a valid pattern with other processes,
    a pattern checks its ops: the loader's text, from the pattern itself."""
    valid = op_pattern([[(1, "send", 10.0)], [(0, "recv", 10.0)]])
    processes = [op_columns(proc, ops) for proc, ops in enumerate(rows)]
    for build in (lambda: op_pattern(rows), lambda: replace(valid, processes=processes)):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


@pytest.mark.parametrize("fields, message", [(fields, message) for *_, fields, message in PROFILE_RULES])
def test_a_profile_that_breaks_its_rule_is_refused_when_built(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SystemProfile(**fields)


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


# [pattern] keys that are parsed and checked but not modelled: transfers take
# no time, and the program is the ops as written
UNMODELLED = ("interval", "message_size", "repetition")


def test_unmodelled_pattern_keys_are_accepted():
    text = MINIMAL.replace(
        "wait_mode = active", "wait_mode = active\ninterval = 60 s\nmessage_size = 4096\nrepetition = 1 min"
    )
    assert loads_scenario(text) == loads_scenario(MINIMAL)


@pytest.mark.parametrize(
    "new, message",
    [
        ("message_size = 2.5", "expected an integer, got '2.5'"),
        ("interval = nan s", "number 'nan' is not finite"),
        ("repetition = 60 w", "a time value cannot take the power unit 'w'"),
    ],
)
def test_unmodelled_pattern_keys_are_checked_on_their_line(new, message):
    text = MINIMAL.replace("wait_mode = active", f"wait_mode = active\n{new}")
    line = text.splitlines().index(new) + 1
    with pytest.raises(ParseError, match=f"^line {line}: {message}"):
        loads_scenario(text)


def without_unmodelled_keys(text):
    kept, section = [], None
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped.startswith("["):
            section = stripped
        if section == "[pattern]" and stripped.split("=", 1)[0].strip() in UNMODELLED:
            continue
        kept.append(raw)
    return "\n".join(kept) + "\n"


@pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
def test_fixture_output_without_unmodelled_keys(name, tmp_path):
    text = (FIXTURES / f"{name}.scn").read_text()
    stripped = without_unmodelled_keys(text)
    assert len(stripped.splitlines()) == len(text.splitlines()) - len(UNMODELLED)
    assert output_digest(loads_scenario(stripped, name), tmp_path) == FIXTURE_DIGESTS[name]


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
    assert list(loads_scenario(staggered).pattern.processes[0].offsets[::2]) == [10.0, 11.0]


def test_checkpoint_triggers_past_the_limit_are_refused(monkeypatch):
    # 2 nodes x (10,000 s / 10 s + 1) timer steps
    monkeypatch.setattr(scenario, "SIZE_LIMIT", 1000)
    text = MINIMAL.replace("interval = 100 s", "interval = 10 s").replace("duration = 10 s", "duration = 1 s")
    s = loads_scenario(text)  # 2 x (200 s / 10 s + 1) steps
    assert [t for node in range(2) for t in trigger_times(s.ckpt, node, s.horizon)][:3] == [20.0, 30.0, 40.0]
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


# 1,500 non-blocking sends with explicit waits and 1,500 blocking receives
EVERY = MINIMAL.replace(
    "op = 0 send 1 @ 10 s\nop = 1 recv 0 @ 10 s",
    "op = 0 send 1 @ 1 s wait @ 1.5 s every 1 s until 1500 s\n"
    "op = 1 recv 0 @ 1 s every 1 s until 1500 s",
)
OP_TEXTS = {path.stem: path.read_text() for path in sorted(FIXTURES.glob("*.scn"))}
OP_TEXTS["every"] = EVERY


@pytest.mark.parametrize("name", list(OP_TEXTS))
def test_loaded_ops_are_whole_commops(name):
    """Each process's ops load as whole columns, for the process at its
    position: one post and one wait offset, one peer and one kind byte per
    op, the kinds in immutable ``bytes``. The round trip through rows holds
    only when every column has one entry per op, the kinds set no bit but
    the two kind bits, and a blocking op waits at its post."""
    processes = loads_scenario(OP_TEXTS[name]).pattern.processes
    assert sum(map(len, processes)) >= 12
    for proc, ops in enumerate(processes):
        assert ops.proc == proc
        assert (ops.offsets.typecode, ops.peers.typecode, type(ops.kinds)) == ("d", "i", bytes)
        assert op_columns(proc, op_rows(ops)) == ops
    if name == "every":
        assert processes == [
            op_columns(0, [(1, "send", 1.0 + i, 1.5 + i) for i in range(1500)]),
            op_columns(1, [(0, "recv", 1.0 + i) for i in range(1500)]),
        ]


PROCESS_0 = ("op = 0 send 1 @ 10 s", "op = 0 recv 1 @ 20 s wait @ 25 s", "op = 0 send 1 @ 30 s")


@pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1)])
def test_a_process_loads_its_ops_in_post_order(order):
    """A process's ops load sorted by post, whatever their order in the
    file."""
    text = MINIMAL.replace("op = 0 send 1 @ 10 s", "\n".join(PROCESS_0[i] for i in order)).replace(
        "op = 1 recv 0 @ 10 s", "op = 1 recv 0 @ 10 s\nop = 1 send 0 @ 20 s\nop = 1 recv 0 @ 30 s"
    )
    ops = loads_scenario(text).pattern.processes[0]
    assert ops == op_columns(0, [(1, "send", 10.0), (1, "recv", 20.0, 25.0), (1, "send", 30.0)])
    assert (ops.offsets.typecode, ops.peers.typecode, type(ops.kinds)) == ("d", "i", bytes)
