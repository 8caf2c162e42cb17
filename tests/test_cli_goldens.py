"""Whole CLI outputs, pinned by the SHA-256 of their stdout.

Each command of the README runs in both output formats, and its stdout must
hash to the value recorded below.  The temporary directory in stdout (the
search's ``witness_path``) is replaced by a fixed token before hashing, so
the hashes do not depend on where the test runs.  The witness path contains
a comma, which the CSV record must quote.
"""
from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from murel.cli import main

# The example scenario of README "Scenario files", byte for byte.
README_SCENARIO = """{
  "schema_version": 1,
  "id": "example-qubit-40deg",
  "model": {
    "family": "sigma_phi",
    "phi_degrees": 40.0
  },
  "state": "+x",
  "observables": {
    "x0": "sigma_x",
    "y0": "sigma_y"
  },
  "value_map": "identity",
  "tolerance": 1e-09,
  "seed": 0
}
"""

TMP_TOKEN = "<TMP>"
WITNESS_NAME = "witness,1.json"

# name -> argv; SCENARIO and WITNESS stand for the scenario and witness paths.
COMMANDS = {
    "reproduce-spin": ["reproduce-spin"],
    "metrics": ["metrics", "SCENARIO"],
    "check": ["check", "SCENARIO", "--relation", "OZAWA_E2"],
    "sweep": ["sweep", "SCENARIO", "--param", "phi_degrees", "--grid", "0,15,30,90"],
    "search": ["search", "--relation", "HEISENBERG_E1", "--family", "sigma_phi", "--budget", "50",
               "--seed", "1", "--witness-out", "WITNESS"],
    "search-budget-0": ["search", "--relation", "OZAWA_E2", "--family", "random_unitary",
                        "--budget", "0", "--seed", "1"],
}

# (name, format) -> SHA-256 of stdout, with the temporary directory replaced by TMP_TOKEN.
GOLDEN = {
    ("reproduce-spin", "csv"): "8eba6e7c90c6c5755c40fb6aaf5d7b37891746726ccc33c1fa45b11f32448880",
    ("reproduce-spin", "json"): "35467c53da537af0e8f792a0e7ddfee69eb19c864b5d805f3d2022be6be83666",
    ("metrics", "csv"): "2cab7ef0e796dc6e0e8cf365114c4c67db5804d260f909059cfdb228b6ad0f4c",
    ("metrics", "json"): "fd47b04dd3a65279ee6e354ae2377c2ae549fd3d57c7c1db5158da349ecbad0c",
    ("check", "csv"): "f2d6bcb81c043d3d40157fbee4fd9653b40f25cd460b96f6a50280cc88dbcd1a",
    ("check", "json"): "59079a0d910e6aea5c858be4f576494042db47b646d17d933c732a21140701e5",
    ("sweep", "csv"): "724f0e4264d823ea55c9f825281728621ee7ef311a97f228f7592a0275f10f18",
    ("sweep", "json"): "b63d5923ff95d8cb1a058cf9fc4afc6003b61163cea24c3cd4b0da2ce0b2b783",
    ("search", "csv"): "d827d2c9ef88470ef77e7ef41bc90c960bf7c12df75778943f243e8e15171171",
    ("search", "json"): "68a8121a786c9598783a51820d112dab31fd810a1a906924bd38d0c74c4a0551",
    ("search-budget-0", "csv"): "7e7c7bdfc4292ed9b9c0a6783beaa628f20e206ccd1a2ceda98717e37bf517f9",
    ("search-budget-0", "json"): "304a51e45af63783154c7a2b83d7cbc0ac77f21da1fe666d09e8e23fafd98756",
}

# SHA-256 of the witness file that the "search" command writes, in either format.
WITNESS_SHA256 = "94ba3734a4969826faf202edc4d66656c2ee8700c9fd51dbbb986c87c68f5936"


def test_readme_scenario_is_the_readme_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"^```json\n(.*?)^```", readme, re.S | re.M) == [README_SCENARIO]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_is_byte_identical(capsys, tmp_path, name, fmt):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(README_SCENARIO, encoding="utf-8")
    witness = tmp_path / WITNESS_NAME
    paths = {"SCENARIO": str(scenario), "WITNESS": str(witness)}
    code = main([paths.get(a, a) for a in COMMANDS[name]] + ["--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    stdout = captured.out.replace(str(tmp_path), TMP_TOKEN)
    assert _sha256(stdout.encode("utf-8")) == GOLDEN[(name, fmt)]
    if name == "search":
        assert TMP_TOKEN + "/" + WITNESS_NAME in stdout
        assert _sha256(witness.read_bytes()) == WITNESS_SHA256
