import os
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ftsim.energy import FrequencyLevel, NodePlan, WaitAction
from ftsim.report import (
    CommRecord,
    FlagRecord,
    SavingsReport,
    StateRecord,
    render_report,
    write_report,
    write_trace,
)

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"
FMAX = FrequencyLevel(2.8, 166.0, 1.0, 150.0, 1.0)
F21 = FrequencyLevel(2.1, 148.0, 1.2, 142.0, 1.1)
F12 = FrequencyLevel(1.2, 126.0, 2.1, 125.0, 1.4, 94.5)
LEVELS = (FMAX, F21, F12)


def plan(node=1, f=F21, action=WaitAction.MIN_FREQ):
    eni, ei = 133364.4, 114666.0
    return NodePlan(
        node=node,
        compute_action=f,
        wait_action=action,
        eni_j=eni,
        ei_j=ei,
        saving_j=eni - ei,
        t_comp=724.2,
        t_wait=79.2,
        tt=803.4,
    )


def test_trace_single_state_record(tmp_path):
    out = tmp_path / "t.trace"
    write_trace([StateRecord(1, 0.0, 5.0, "COMPUTE")], out)
    assert out.read_text() == "TRACE v1\nS 1 0.000 5.000 COMPUTE\n"


def test_trace_empty(tmp_path):
    out = tmp_path / "t.trace"
    write_trace([], out)
    assert out.read_text() == "TRACE v1\n"


def test_trace_sorted_and_deterministic(tmp_path):
    records = [  # in trace order, which the writer keeps
        StateRecord(0, 0.0, 3.0, "COMPUTE"),
        CommRecord(0, 1, 1.0, 2.0, "B"),
        FlagRecord(2, 4.0, "BEGIN", "SLEEP"),
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    write_trace(records, a)
    write_trace(iter(records), b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[1].startswith("S 0")
    assert lines[2].startswith("C 0 1")
    assert lines[3] == "F 2 4.000 BEGIN SLEEP"


def test_csv_report_layout(tmp_path):
    report = SavingsReport(rows=[plan()], levels=LEVELS)
    out = tmp_path / "r.csv"
    write_report(report, out, "csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "node,compute_action,t_comp_min,wait_action,t_wait_min,tt_min,save_j,save_rate_j_s,save_pct"
    assert lines[1] == "1,2.1 GHz,12.07,1.2 GHz,1.32,13.39,18698.40,23.27,14.02"
    assert lines[2] == "TOTAL,,,,,,18698.40,,"


def test_empty_report(tmp_path):
    report = SavingsReport(rows=[], levels=LEVELS)
    out = tmp_path / "r.csv"
    write_report(report, out, "csv")
    assert out.read_text().splitlines()[1] == "TOTAL,,,,,,0.00,,"


def test_text_format_same_values():
    report = SavingsReport(rows=[plan(action=WaitAction.SLEEP, f=FMAX)], levels=LEVELS)
    text = render_report(report, "text")
    assert "No action" in text and "sleep" in text and "18698.40" in text


def test_rounding_is_half_up():
    p = replace(plan(), saving_j=0.005)
    report = SavingsReport(rows=[p], levels=LEVELS)
    text = render_report(report, "csv")
    assert text.splitlines()[-1] == "TOTAL,,,,,,0.01,,"


@pytest.fixture
def umask_027():
    old = os.umask(0o027)
    try:
        yield
    finally:
        os.umask(old)


def file_mode(path):
    return stat.S_IMODE(path.stat().st_mode)


def test_outputs_are_created_with_the_umask_mode(tmp_path, umask_027):
    report, trace = tmp_path / "r.csv", tmp_path / "t.trace"
    write_report(SavingsReport(rows=[plan()], levels=LEVELS), report, "csv")
    write_trace([StateRecord(1, 0.0, 5.0, "COMPUTE")], trace)
    assert file_mode(report) == file_mode(trace) == 0o640


def test_replaced_outputs_keep_their_mode(tmp_path, umask_027):
    report, trace = tmp_path / "r.csv", tmp_path / "t.trace"
    for path in (report, trace):
        path.write_text("old\n")
        path.chmod(0o604)
    write_report(SavingsReport(rows=[plan()], levels=LEVELS), report, "csv")
    write_trace([StateRecord(1, 0.0, 5.0, "COMPUTE")], trace)
    assert file_mode(report) == file_mode(trace) == 0o604
    assert report.read_text().startswith("node,") and trace.read_text().startswith("TRACE v1")



def test_outputs_are_written_through_a_symlink(tmp_path):
    real, link = tmp_path / "real.csv", tmp_path / "out.csv"
    real.write_text("old\n")
    link.symlink_to("real.csv")
    write_report(SavingsReport(rows=[plan()], levels=LEVELS), link, "csv")
    assert link.is_symlink() and os.readlink(link) == "real.csv"
    assert real.read_text().startswith("node,")


def test_a_dangling_symlink_creates_its_target(tmp_path, umask_027):
    (tmp_path / "out").mkdir()
    real, link = tmp_path / "out" / "real.trace", tmp_path / "t.trace"
    link.symlink_to(real)
    write_trace([StateRecord(1, 0.0, 5.0, "COMPUTE")], link)
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text().startswith("TRACE v1")
    assert file_mode(real) == 0o640
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["out", "real.trace", "t.trace"]


def test_a_symlinks_replaced_target_keeps_its_mode(tmp_path, umask_027):
    real, link = tmp_path / "real.trace", tmp_path / "t.trace"
    real.write_text("old\n")
    real.chmod(0o604)
    link.symlink_to(real)
    write_trace([StateRecord(1, 0.0, 5.0, "COMPUTE")], link)
    assert link.is_symlink() and real.read_text().startswith("TRACE v1")
    assert file_mode(real) == 0o604

def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ftsim.cli", *args],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parent.parent,
        timeout=120,
    )


def test_cli_run_writes_outputs(tmp_path):
    trace = tmp_path / "out.trace"
    report = tmp_path / "out.csv"
    proc = run_cli(
        "run", str(FIXTURES / "scenario1_short.scn"),
        "--trace", str(trace), "--report", str(report), "--format", "csv",
    )
    assert proc.returncode == 0, proc.stderr
    assert trace.read_text().startswith("TRACE v1\n")
    body = report.read_text()
    assert "2.1 GHz" in body and body.strip().endswith(",,")


def test_cli_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text((FIXTURES / "scenario1_short.scn").read_text().replace("node = 0", "node = 9"))
    proc = run_cli("run", str(bad))
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_cli_missing_file_exit_code():
    proc = run_cli("run", "/nonexistent/path.scn")
    assert proc.returncode == 2


def test_cli_depth_override(tmp_path):
    report = tmp_path / "r.csv"
    proc = run_cli("run", str(FIXTURES / "scenario5.scn"), "--depth", "1", "--report", str(report))
    assert proc.returncode == 0
    rows = [l for l in report.read_text().splitlines()[1:] if not l.startswith("TOTAL")]
    assert len(rows) == 1


def test_cli_auto_depth_without_ops(tmp_path):
    # `auto` resolves the same way from the file and from the command line,
    # also when no process sends anything
    from test_scenario import MINIMAL

    lines = [l for l in MINIMAL.splitlines(keepends=True) if not l.startswith("op = ")]
    empty = tmp_path / "empty.scn"
    empty.write_text("".join(lines).replace("depth = 1", "depth = auto"))
    from_file = run_cli("run", str(empty))
    from_flag = run_cli("run", str(empty), "--depth", "auto")
    assert from_file.returncode == 0, from_file.stderr
    assert from_flag.returncode == 0, from_flag.stderr
    assert from_flag.stdout == from_file.stdout


@pytest.mark.parametrize("horizon", ["inf", "-inf", "nan"])
def test_cli_rejects_a_non_finite_horizon(horizon):
    proc = run_cli("run", str(FIXTURES / "scenario5.scn"), f"--horizon={horizon}")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: horizon must be finite")
    assert proc.stdout == ""


def test_cli_rejects_a_non_finite_number_in_the_file(tmp_path):
    text = (FIXTURES / "scenario5.scn").read_text()
    horizon = next(l for l in text.splitlines() if l.startswith("horizon ="))
    bad = tmp_path / "bad.scn"
    bad.write_text(text.replace(horizon, "horizon = inf s"))
    line = text.splitlines().index(horizon) + 1
    proc = run_cli("run", str(bad))
    assert proc.returncode == 1
    assert proc.stderr == f"error: line {line}: number 'inf' is not finite\n"


def test_cli_depth_flag_reads_like_the_depth_key(tmp_path):
    text = (FIXTURES / "scenario5.scn").read_text()
    depth = next(l for l in text.splitlines() if l.startswith("depth ="))
    bad = tmp_path / "bad.scn"
    bad.write_text(text.replace(depth, "depth = 2.5"))
    line = text.splitlines().index(depth) + 1
    from_file = run_cli("run", str(bad))
    from_flag = run_cli("run", str(FIXTURES / "scenario5.scn"), "--depth", "2.5")
    assert (from_file.returncode, from_flag.returncode) == (1, 1)
    assert from_flag.stderr == "error: expected an integer, got '2.5'\n"
    assert from_file.stderr == f"error: line {line}: expected an integer, got '2.5'\n"


def test_cli_no_strategies(tmp_path):
    report = tmp_path / "r.csv"
    proc = run_cli("run", str(FIXTURES / "scenario1_long.scn"), "--no-strategies", "--report", str(report))
    assert proc.returncode == 0
    assert report.read_text().splitlines()[1] == "TOTAL,,,,,,0.00,,"


def test_trace_records_are_immutable_and_told_apart():
    records = [
        StateRecord(0, 0.0, 1.0, "COMPUTE"),
        CommRecord(0, 1, 1.0, 2.0, "B"),
        FlagRecord(0, 1.0, "BEGIN", "SLEEP"),
    ]
    kinds = (StateRecord, CommRecord, FlagRecord)
    for record, kind in zip(records, kinds):
        assert [isinstance(record, k) for k in kinds] == [k is kind for k in kinds]
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 9)
