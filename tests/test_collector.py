"""``ftsim run`` pauses CPython's cyclic collector. That is safe only while a
run makes no reference cycles, so that reference counting frees all it
builds: these tests check that, and that the CLI leaves the collector as it
found it."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ftsim import cli
from ftsim.scenario import load_scenario
from ftsim.simulate import simulate_detailed

from scengen import random_scenario
from test_output_pins import SHAPED

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_builders():
    for path in sorted(FIXTURES.glob("*.scn")):
        yield path.stem, lambda path=path: load_scenario(path)
    yield from SHAPED.items()
    for seed in range(8):
        yield f"seed{seed}", lambda seed=seed: random_scenario(seed)


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name, build", list(scenario_builders()))
def test_a_run_leaves_no_cyclic_garbage(name, build, collector_off):
    gc.collect()
    result = simulate_detailed(build())
    assert result.trace
    del result
    assert gc.collect() == 0, name


@pytest.mark.parametrize("enabled", [True, False])
def test_the_cli_pauses_the_collector_and_restores_it(enabled, tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[nowhere]\n")
    runs = {
        0: [str(FIXTURES / "scenario5.scn"), "--report", str(tmp_path / "r.csv")],
        1: [str(bad)],
        2: [str(tmp_path / "missing.scn")],
    }
    during = []
    simulate = cli.simulate_detailed

    def spied(scenario):
        during.append(gc.isenabled())
        return simulate(scenario)

    monkeypatch.setattr(cli, "simulate_detailed", spied)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for code, args in runs.items():
            assert cli.main(["run", *args]) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def test_importing_the_cli_builds_no_parser():
    code = "import ftsim.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)},
    )
    assert proc.stdout.strip() == "0"
    assert cli._parser() is cli._parser()
