"""The CLI exit-code contract: 0 success, 1 usage error, 2 invalid scenario.

Every failing run leaves stdout empty and writes exactly one line to
stderr.  Search flags are validated before the first evaluation.
"""
from __future__ import annotations

import json
import tracemalloc

import pytest

import murel.cli
from murel.cli import main
from murel.search import CertificationError, _SpaceImpl

SCENARIO = {
    "schema_version": 1,
    "model": {"family": "sigma_phi", "phi_degrees": 30.0},
    "state": "+x",
    "observables": {"x0": "sigma_x", "y0": "sigma_y"},
}
SHIFT_SCALE_1E200 = {
    "schema_version": 1,
    "model": {"family": "shift", "probe_dim": 4, "probe_state": [[0, 0], [1, 0], [0, 0], [0, 0]]},
    "state": "+x",
    "observables": {"x0": "sigma_z", "y0": "sigma_y"},
    "value_map": "scale:1e200",
}
X0_1E200 = {**SCENARIO, "observables": {"x0": [[[1e200, 0], [0, 0]], [[0, 0], [-1e200, 0]]], "y0": "sigma_y"}}
IDENTITY_3 = [[[float(i == j), 0] for j in range(3)] for i in range(3)]
EXPLICIT_CNOT = {
    "family": "explicit",
    "object_dim": 2,
    "unitary": [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0], [0, 0]],
                [[0, 0], [0, 0], [0, 0], [1, 0]], [[0, 0], [0, 0], [1, 0], [0, 0]]],
    "probe_state": [[1, 0], [0, 0]],
    "meter": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
}
SHIFT_PROBE_DIM_0 = {"family": "shift", "probe_dim": 0, "probe_state": []}


def _text(doc: dict) -> bytes:
    return json.dumps(doc).encode("utf-8")


SEARCH = ["search", "--relation", "OZAWA_E2", "--family", "shift", "--seed", "0"]
RANDOM_UNITARY = ["search", "--relation", "OZAWA_E2", "--family", "random_unitary", "--seed", "0", "--budget", "0"]

# (id, scenario file bytes or None, argv with FILE for its path, exit code)
CASES = [
    ("metrics", _text(SCENARIO), ["metrics", "FILE"], 0),
    ("search-budget-0", None, [*SEARCH, "--budget", "0"], 0),
    ("missing-file", None, ["metrics", "FILE"], 1),
    ("non-utf8-file", _text(SCENARIO).replace(b'"+x"', '"é"'.encode("latin-1")), ["metrics", "FILE"], 2),
    ("bad-json", b'{"schema_version": 1,', ["metrics", "FILE"], 2),
    ("unknown-family", _text({**SCENARIO, "model": {"family": "teleport"}}), ["metrics", "FILE"], 2),
    ("value-map-overflow", _text(SHIFT_SCALE_1E200), ["metrics", "FILE"], 2),
    ("observable-overflow", _text(X0_1E200), ["check", "FILE", "--relation", "OZAWA_E2"], 2),
    ("value-map-identity:3", None, [*SEARCH, "--budget", "30", "--value-map", "identity:3"], 1),
    ("value-map-center:1", None, [*SEARCH, "--budget", "30", "--value-map", "center_on_meter_mean:1"], 1),
    ("value-map-scale:abc", None, [*SEARCH, "--budget", "30", "--value-map", "scale:abc"], 1),
    ("tol-negative", None, [*SEARCH, "--budget", "30", "--tol", "-1"], 1),
    ("tol-zero", None, [*SEARCH, "--budget", "30", "--tol", "0"], 1),
    ("tol-nan", None, [*SEARCH, "--budget", "30", "--tol", "nan"], 1),
    ("budget-negative", None, [*SEARCH, "--budget", "-1"], 1),
    ("random-unitary-dim-20", None, [*RANDOM_UNITARY, "--object-dim", "5", "--probe-dim", "4"], 1),
    ("random-unitary-object-dim-1", None, [*RANDOM_UNITARY, "--object-dim", "1"], 1),
    ("random-unitary-probe-dim-1", None, [*RANDOM_UNITARY, "--probe-dim", "1"], 1),
    ("sweep-grid-nan", _text(SCENARIO), ["sweep", "FILE", "--param", "phi_degrees", "--grid", "nan"], 2),
    ("sweep-grid-empty", _text(SCENARIO), ["sweep", "FILE", "--param", "phi_degrees", "--grid", ""], 1),
    ("sweep-grid-blank", _text(SCENARIO), ["sweep", "FILE", "--param", "phi_degrees", "--grid", " \t"], 1),
    ("seed-negative", None, [*SEARCH, "--budget", "30", "--seed", "-1"], 1),
    ("explicit-meter-3", _text({**SCENARIO, "model": {**EXPLICIT_CNOT, "meter": IDENTITY_3}}), ["metrics", "FILE"], 2),
    ("state-length-3", _text({**SCENARIO, "state": [[1, 0], [0, 0], [0, 0]]}), ["metrics", "FILE"], 2),
    ("observables-3x3", _text({**SCENARIO, "model": EXPLICIT_CNOT, "observables": {"x0": IDENTITY_3, "y0": IDENTITY_3}}),
     ["metrics", "FILE"], 2),
    ("id-integer", _text({**SCENARIO, "id": 3}), ["metrics", "FILE"], 2),
    ("model-list", _text({**SCENARIO, "model": []}), ["metrics", "FILE"], 2),
    ("top-level-list", b"[]", ["metrics", "FILE"], 2),
    ("probe-dim-0", _text({**SCENARIO, "model": SHIFT_PROBE_DIM_0}), ["metrics", "FILE"], 2),
    ("object-dim-0", _text({**SCENARIO, "model": {**EXPLICIT_CNOT, "object_dim": 0}}), ["metrics", "FILE"], 2),
    ("shift-object-dim-3", None, [*SEARCH, "--budget", "30", "--object-dim", "3"], 1),
    ("state-empty", _text({**SCENARIO, "state": []}), ["metrics", "FILE"], 2),
    ("x0-empty", _text({**SCENARIO, "observables": {"x0": [], "y0": "sigma_y"}}), ["metrics", "FILE"], 2),
    ("value-map-number", _text({**SCENARIO, "value_map": 5}), ["metrics", "FILE"], 2),
    ("value-map-scale:inf", _text({**SCENARIO, "value_map": "scale:inf"}), ["metrics", "FILE"], 2),
]
# The stderr line of the rejections above that no other test reads.
MESSAGES = {
    "explicit-meter-3": "scenario error: scenario.model.meter: meter dim 3 != probe dim 2\n",
    "state-length-3": "scenario error: scenario.state: state length 3 != object dim 2\n",
    "observables-3x3": "scenario error: scenario.observables: observable dim 3 != object_dim 2\n",
    "id-integer": "scenario error: scenario.id: expected a string, got 3\n",
    "model-list": "scenario error: scenario.model: expected an object, got list\n",
    "top-level-list": "scenario error: scenario: expected an object, got list\n",
    "probe-dim-0": "scenario error: scenario.model.probe_dim: probe_dim must be positive\n",
    "object-dim-0": "scenario error: scenario.model.object_dim: object_dim must be positive\n",
    "shift-object-dim-3": "usage error: SearchSpace.x0_spec: observable dim 2 != object_dim 3\n",
    "state-empty": "scenario error: scenario.state: expected a non-empty list of [re, im] pairs\n",
    "x0-empty": "scenario error: scenario.observables.x0: expected a non-empty list of rows\n",
    "value-map-number": "scenario error: scenario.value_map: expected a value-map string, got 5\n",
    "value-map-scale:inf": "scenario error: scenario.value_map: non-finite argument in value map 'scale:inf'\n",
}


def _no_evaluation(*args, **kwargs):
    raise AssertionError("the search evaluated a candidate")


@pytest.mark.parametrize("content,argv,expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_exit_code_contract(capsys, tmp_path, monkeypatch, content, argv, expected):
    monkeypatch.setattr(_SpaceImpl, "evaluate", _no_evaluation)
    path = tmp_path / "scenario.json"
    if content is not None:
        path.write_bytes(content)
    code = main([str(path) if a == "FILE" else a for a in argv])
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert code == expected
    if code == 0:
        assert captured.out != "" and captured.err == ""
    else:
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        prefix = "usage error: " if code == 1 else "scenario error: "
        assert captured.err.startswith(prefix)


@pytest.mark.parametrize("case_id,message", MESSAGES.items(), ids=list(MESSAGES))
def test_rejection_message_names_its_field(capsys, tmp_path, monkeypatch, case_id, message):
    monkeypatch.setattr(_SpaceImpl, "evaluate", _no_evaluation)
    content, argv, _ = next(c[1:] for c in CASES if c[0] == case_id)
    path = tmp_path / "scenario.json"
    if content is not None:
        path.write_bytes(content)
    code = main([str(path) if a == "FILE" else a for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2 if message.startswith("scenario") else 1, "", message)


@pytest.mark.parametrize("argv,message", [
    (["metrics", "a\x00b"], "cannot read scenario file 'a\\x00b': embedded null byte"),
    ([*SEARCH, "--budget", "3", "--witness-out", "a\x00b"], "cannot write witness file 'a\\x00b': embedded null byte"),
    (["reproduce-spin", "a\nb"], "unrecognized arguments: a\\nb"),
], ids=["read-nul", "write-nul", "extra-newline"])
def test_a_nul_or_newline_in_an_argument_exits_1_with_one_line(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"usage error: {message}\n")


def test_zero_budget_witness_request_says_no_file_was_written(capsys, tmp_path):
    path = tmp_path / "zero.json"
    code = main([*SEARCH, "--budget", "0", "--witness-out", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.endswith("\nno violation\n")
    assert captured.err == f"note: a zero-budget search has no witness; {str(path)!r} was not written\n"
    assert not path.exists()


def test_a_witness_that_fails_certification_exits_3_with_one_line(capsys, monkeypatch):
    def failing_certify(result):
        raise CertificationError("witness slack does not reproduce")

    monkeypatch.setattr(murel.cli, "certify", failing_certify)
    code = main([*SEARCH, "--budget", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", "internal consistency failure: witness slack does not reproduce\n")


def test_search_value_map_overflow_exits_1_on_the_first_candidate(capsys):
    code = main([*SEARCH, "--budget", "30", "--value-map", "scale:1e200"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage error: SearchSpace.value_map_spec: measurement value ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_negative_seed_names_the_flag_and_value(capsys, monkeypatch, seed):
    monkeypatch.setattr(_SpaceImpl, "evaluate", _no_evaluation)
    code = main([*SEARCH, "--budget", "30", "--seed", seed])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"usage error: --seed must be a non-negative integer, got {seed}\n"


def test_unwritable_witness_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing-dir" / "witness.json"
    code = main([*SEARCH, "--budget", "5", "--witness-out", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage error: cannot write witness file ")
    assert captured.err.count("\n") == 1
    assert not path.exists()


def test_shift_search_past_the_register_bound_exits_1_without_allocating(capsys):
    """2 x 10^8 pointer levels are refused before any per-level array is laid out."""
    tracemalloc.start()
    try:
        code = main([*SEARCH, "--budget", "5", "--probe-dim", "100000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "usage error: object dim 2 * probe_dim 100000000 exceeds the shift bound 256\n"
    assert peak < 2**20


@pytest.mark.parametrize("dims", [["--object-dim", "4", "--probe-dim", "3"], ["--object-dim", "3"],
                                  ["--probe-dim", "4"]], ids=["4x3", "object-3", "probe-4"])
def test_sigma_phi_search_with_other_dims_is_a_usage_error(capsys, monkeypatch, dims):
    """sigma_phi is a qubit model; a dimension other than 2 is refused, not ignored."""
    monkeypatch.setattr(_SpaceImpl, "evaluate", _no_evaluation)
    code = main(["search", "--relation", "HEISENBERG_E1", "--family", "sigma_phi", "--budget", "30",
                 "--seed", "0", *dims])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage error: sigma_phi ")
    assert captured.err.count("\n") == 1


def test_sigma_phi_search_with_qubit_dims_runs(capsys):
    code = main(["search", "--relation", "HEISENBERG_E1", "--family", "sigma_phi", "--budget", "5",
                 "--seed", "0", "--object-dim", "2", "--probe-dim", "2"])
    assert code == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["", " \t"], ids=["empty", "blank"])
def test_empty_witness_path_is_a_usage_error(capsys, monkeypatch, value):
    """An empty --witness-out would write no file; it is refused before any evaluation."""
    monkeypatch.setattr(_SpaceImpl, "evaluate", _no_evaluation)
    code = main([*SEARCH, "--budget", "30", "--witness-out", value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "usage error: --witness-out is empty: give a file path\n"


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "FILE", "--param", "phi_degrees", "--grid", "-40,0,40"], "--grid"),
    ([*SEARCH, "--budget", "30", "--tol", "-1e-9"], "--tol"),
], ids=["grid", "tol"])
def test_a_value_read_as_an_option_names_the_equals_form(capsys, tmp_path, monkeypatch, argv, flag):
    monkeypatch.setattr(_SpaceImpl, "evaluate", _no_evaluation)
    path = tmp_path / "scenario.json"
    path.write_bytes(_text(SCENARIO))
    code = main([str(path) if a == "FILE" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (f"usage error: argument {flag}: expected one argument "
                            f"(for a value that starts with '-', write {flag}=VALUE)\n")


def test_negative_grid_in_the_equals_form_sweeps_every_value(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_bytes(_text(SCENARIO))
    code = main(["sweep", str(path), "--param", "phi_degrees", "--grid=-40,0,40", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert [row["param_value"] for row in rows] == [-40.0, 0.0, 40.0]
