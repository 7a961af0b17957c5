"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ftsim.scenario import loads_scenario  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORT = "node,compute_action\nTOTAL,,,,,,0.00,,\n"
TILED = "TRACE v1\nS 0 0.000 5.000 COMPUTE\nS 1 0.000 9.000 COMPUTE\nS 0 5.000 9.000 WAIT_ACTIVE\n"


@pytest.mark.parametrize(
    "generate, ops_per_node",
    [
        (workloads.halo_chain, {0: 100, 1: 200, 32: 200, 63: 100}),
        (workloads.master_worker, {0: 1200, 1: 20, 60: 20}),
    ],
)
def test_generator_is_deterministic_per_seed(generate, ops_per_node):
    text = generate(7)
    assert generate(7) == text
    assert generate(8) != text
    scenario = loads_scenario(text)
    for node, count in ops_per_node.items():
        assert len(scenario.pattern.processes[node]) == count


def test_never_extends():
    assert checks.never_extends(100.0, 100.0) == []
    assert checks.never_extends(99.0, 100.0) == []
    assert checks.never_extends(100.5, 100.0)


def test_states_tile():
    assert checks.states_tile(TILED, 2, 9.0) == []
    assert checks.states_tile(TILED.replace("S 0 5.000", "S 0 6.000"), 2, 9.0)
    assert checks.states_tile(TILED.replace("S 0 0.000", "S 0 1.000"), 2, 9.0)
    assert checks.states_tile(TILED, 2, 10.0)
    assert checks.states_tile(TILED, 3, 9.0)


def test_states_tile_accepts_sub_millisecond_states():
    trace = "TRACE v1\nS 0 0.000 5.000 COMPUTE\nS 0 5.000 5.000 WAIT_ACTIVE\nS 0 5.000 9.000 COMPUTE\n"
    assert checks.states_tile(trace, 1, 9.0) == []


def fake_cli(makespan, reference, traces):
    """A stand-in for ``ftsim.cli`` whose calls write the given traces in turn."""
    cli = SimpleNamespace()
    outputs = iter(traces)

    def simulate_detailed(scenario):
        return SimpleNamespace(makespan=makespan, reference_makespan=reference)

    def main(argv):
        cli.simulate_detailed(SimpleNamespace(nodes=2))
        Path(argv[argv.index("--report") + 1]).write_text(REPORT)
        Path(argv[argv.index("--trace") + 1]).write_text(next(outputs))
        return 0

    cli.main = main
    cli.simulate_detailed = simulate_detailed
    return cli


@pytest.mark.parametrize(
    "makespan, traces, failed, reason",
    [
        (9.0, [TILED, TILED], 0, None),
        (9.5, [TILED, TILED], 2, "exceeds the reference"),
        (9.0, [TILED.replace("S 0 5.000", "S 0 6.000")] * 2, 2, "states jump"),
        (9.0, [TILED, TILED + "C 0 1 1.000 1.000 B\n"], 1, "differ"),
    ],
)
def test_bench_counts_each_failed_call(tmp_path, makespan, traces, failed, reason):
    scenario = tmp_path / "s.scn"
    scenario.write_text("")
    bench = run.Bench(fake_cli(makespan, 9.0, traces), [scenario], tmp_path)
    bench.run_pass()
    bench.run_pass()
    assert (bench.attempted, bench.failed) == (2, failed)
    assert all(reason in failure for failure in bench.failures)


def benchmark(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = benchmark("--workload", "fixtures", "--seed", "1", "--seconds", "0.2", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in printed)
    if trace == "1":
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        layers = [name for name in metrics if name.endswith("_s") and name != "traced_run_s"]
        assert sum(metrics[name] for name in layers) == pytest.approx(metrics["traced_run_s"])
        assert metrics["scenario.validate_calls"] == 2


def test_refuses_to_run_without_the_sources():
    done = benchmark("--workload", "fixtures", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=HERE)
    assert done.returncode != 0
    assert done.stdout == ""
