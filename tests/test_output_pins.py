"""Byte pins: the sha256 of the CSV report plus the trace of each fixture and
of a few generated scenarios. A change meant to keep output as it is (a
refactor, a speed-up) must leave every digest unchanged; a change that moves
simulated results on purpose updates them here and says why.
"""

import hashlib
from pathlib import Path

import pytest

from ftsim.report import render_report, write_trace
from ftsim.scenario import load_scenario
from ftsim.simulate import simulate_detailed

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

# seeds 0-1 are non-blocking, 3 and 5 buffered; depths 1, 2 and 5 all occur
GENERATED_DIGESTS = {
    0: "b128ff1464ce16b0894d7e8868411e1597d8bcae5667171ab0b9aed812a1441a",
    1: "bcda30730be13079e69f3cd2e13d2dec6052f3fc233fc627b0973cb9ed8664c5",
    2: "08d52917a85830c307715b9c338980183a3006edf576e0f60faeaa2013d1b169",
    3: "908f81fb1929d29af43eb00010853063334538777b0f23dbdd4eda0edcdd1cac",
    4: "9a8ca8637fe9f8c06170fa8b5e82a5f18e8851146b9b6bac232907b9ae02048d",
    5: "3faefb6472919e9d7240c9578b17bbaa6ef72d57cce494e06b2408271340edde",
    6: "7c21d86c8d92399356bc612d01b8aa113930f49444fb0ec9324e9e549408ad38",
    7: "16d791605bc9c087b2b4448365193cc3b351ac9a825b972b8c37989debe6e28a",
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
