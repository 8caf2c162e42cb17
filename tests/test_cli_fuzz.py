"""Fuzz the command line: any argv ends in exit code 0-3 and at most one stderr line.

Each example draws a subcommand, its positional arguments and a subset of
its flags, in any order, with values from the valid choices and from
malformed ones (empty, blank, negative, huge, non-numeric, nan, inf,
non-ASCII, a NUL byte), and may drop a flag's value or append an extra
argument.  Scenario paths are the README example, a directory, a missing
file or a malformed value.  `main` runs in-process inside a scratch working
directory, so relative witness paths land there.  No exception may escape
`main`; a failing run leaves stdout empty.  Budgets stay at most 50 and
dimensions come from a small set, so no example allocates much.
"""
from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from murel.cli import main
from murel.relations import RelationId

README_SCENARIO = {
    "schema_version": 1,
    "id": "example-qubit-40deg",
    "model": {"family": "sigma_phi", "phi_degrees": 40.0},
    "state": "+x",
    "observables": {"x0": "sigma_x", "y0": "sigma_y"},
    "value_map": "identity",
    "tolerance": 1e-09,
    "seed": 0,
}

MALFORMED = ["", " \t", "\n", "-1", "abc", "nan", "inf", "-inf", "é∞", "a\x00b"]
HUGE = str(10**9)
FORMATS = ["csv", "json"]
FILE = "scenario_file"

# subcommand -> {argument: valid values}; FILE is the positional scenario path
COMMANDS = {
    "metrics": {FILE: ["scenario.json"], "--format": FORMATS},
    "sweep": {FILE: ["scenario.json"], "--param": ["phi_degrees"], "--grid": ["0,40,90", "-40,0", "1e308"],
              "--format": FORMATS},
    "check": {FILE: ["scenario.json"], "--relation": [r.value for r in RelationId], "--format": FORMATS},
    "search": {
        "--relation": ["HEISENBERG_E1", "OZAWA_E2", "SQL_COND_E3", "MVOSTD_E12"],
        "--family": ["sigma_phi", "shift", "random_unitary"],
        "--budget": ["0", "1", "7", "50"],
        "--seed": ["0", "3", HUGE],
        "--tol": ["1e-9", "0.5", "1e308"],
        "--object-dim": ["2", "4", "3", "1", "0", "-1", HUGE],
        "--probe-dim": ["2", "4", "3", "1", "0", "-1", HUGE],
        "--value-map": ["identity", "scale:2", "shift:0.5", "center_on_meter_mean", "scale:1e200"],
        "--witness-out": ["witness.json"],
        "--format": FORMATS,
    },
    "reproduce-spin": {"--format": FORMATS},
}
REQUIRED = {FILE, "--relation", "--family", "--budget", "--seed", "--param", "--grid"}
# Malformed values per argument; a budget takes no huge value, which could be 10**9 evaluations.
BAD = {
    FILE: [*MALFORMED, "a-directory", "missing.json"],
    "--witness-out": [*MALFORMED, "a-directory", "missing-dir/witness.json"],
    "--budget": MALFORMED,
}
FAULTS = ["malformed", "no value", "missing", "extra", "command"]


@st.composite
def argvs(draw) -> list[str]:
    """A valid argv for a subcommand, then zero to two faults, its arguments in any order."""
    name = draw(st.sampled_from(list(COMMANDS)))
    args = {key: draw(st.sampled_from(valid)) for key, valid in COMMANDS[name].items()
            if key in REQUIRED or draw(st.booleans())}
    extras = []
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(FAULTS))
        if fault == "command":
            name = draw(st.sampled_from(["bogus", "--version", *MALFORMED]))
        elif fault == "extra" or not args:
            extras.append(draw(st.sampled_from(["extra", "--bogus", "--help", *MALFORMED])))
        else:
            key = draw(st.sampled_from(sorted(args)))
            if fault == "malformed":
                args[key] = draw(st.sampled_from(BAD.get(key, [*MALFORMED, HUGE])))
            elif fault == "no value" and key != FILE:
                args[key] = None
            else:
                del args[key]
    groups = [[value] if key == FILE else [key] if value is None else [key, value]
              for key, value in args.items()]
    groups += [[extra] for extra in extras]
    return [name, *(arg for group in draw(st.permutations(groups)) for arg in group)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-fuzz")
    (path / "scenario.json").write_text(json.dumps(README_SCENARIO), encoding="utf-8")
    (path / "a-directory").mkdir()
    before = os.getcwd()
    os.chdir(path)
    yield path
    os.chdir(before)


SEARCH = ["search", "--relation", "OZAWA_E2", "--family", "shift", "--seed", "0"]


@seed(20261019)
@settings(max_examples=400, deadline=None, database=None)
@given(argvs())
# A NUL byte in a scenario path and in a witness path (Path.read_text and
# Path.write_text raise ValueError, not OSError).
@example(["metrics", "a\x00b"])
@example([*SEARCH, "--budget", "3", "--witness-out", "a\x00b"])
# A zero-budget search asked for a witness writes no file and says so.
@example([*SEARCH, "--budget", "0", "--witness-out", "witness.json"])
# x0 = sigma_z does not act on a 3-level object.
@example([*SEARCH, "--budget", "3", "--object-dim", "3"])
def test_any_argv_exits_0_to_3_with_at_most_one_stderr_line(workdir, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    stderr = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert stderr == "" or (stderr.count("\n") == 1 and stderr.endswith("\n"))
    assert "Traceback" not in stderr
    if code != 0:
        assert out.getvalue() == ""
