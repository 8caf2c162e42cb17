"""Malformed scenario inputs end in ScenarioError (CLI exit 2), never a traceback."""
from __future__ import annotations

import json

import pytest

from murel.cli import main
from murel.scenario import ScenarioError, parse_scenario, scenario_from_dict

BASE = {
    "schema_version": 1,
    "model": {"family": "sigma_phi", "phi_degrees": 0.0},
    "state": "+x",
    "observables": {"x0": "sigma_x", "y0": "sigma_y"},
}
HUGE_INTEGER = "1" + "0" * 400  # a valid JSON integer beyond the float range


def _with_phi(literal: str) -> str:
    return json.dumps(BASE).replace('"phi_degrees": 0.0', f'"phi_degrees": {literal}')


def _run(capsys, path) -> tuple[int, str, str]:
    code = main(["metrics", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_integer_beyond_float_range_is_a_scenario_error():
    with pytest.raises(ScenarioError, match=r"scenario\.model\.phi_degrees: integer beyond the float range"):
        parse_scenario(_with_phi(HUGE_INTEGER))
    doc = json.loads(json.dumps(BASE))
    doc["model"]["phi_degrees"] = 10**400
    with pytest.raises(ScenarioError, match="beyond the float range"):
        scenario_from_dict(doc)


def test_deeply_nested_json_is_a_scenario_error():
    depth = 100_000
    with pytest.raises(ScenarioError, match="nested too deeply"):
        parse_scenario("[" * depth + "]" * depth)


def test_integer_literal_past_the_digit_limit_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="too many digits"):
        parse_scenario(_with_phi("1" + "0" * 5000))


@pytest.mark.parametrize(
    "text",
    [
        _with_phi(HUGE_INTEGER),
        "[" * 100_000 + "]" * 100_000,
        _with_phi("1" + "0" * 5000),
    ],
    ids=["huge-integer", "deep-nesting", "digit-limit"],
)
def test_cli_exits_2_with_one_line_diagnostic(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, path)
    assert code == 2
    assert out == ""
    assert err.startswith("scenario error: ")
    assert err.count("\n") == 1


def test_cli_rejects_non_utf8_file_with_exit_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(BASE).replace('"+x"', '"é"').encode("latin-1"))
    code, out, err = _run(capsys, path)
    assert code == 2
    assert out == ""
    assert "not UTF-8 text" in err
    assert err.count("\n") == 1
