"""Malformed scenario inputs end in ScenarioError (CLI exit 2), never a traceback."""
from __future__ import annotations

import json
import math
import tracemalloc
import warnings

import pytest

from murel.cli import main
from murel.relations import check
from murel.scenario import ScenarioError, build_configuration, parse_scenario, scenario_from_dict

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


# A shift model with its pointer at level 1 of 4: the readouts 0..3 centre
# on -1..2, and scale:1e308 sends 2 past the float range.
OVERFLOW_MAP = {
    "schema_version": 1,
    "model": {"family": "shift", "probe_dim": 4, "probe_state": [[0, 0], [1, 0], [0, 0], [0, 0]]},
    "state": "+z",
    "observables": {"x0": "sigma_z", "y0": "sigma_y"},
    "value_map": "scale:1e308",
}


def test_value_map_past_the_float_range_is_a_scenario_error():
    with pytest.raises(ScenarioError, match=r"^scenario\.value_map: .*non-finite"):
        build_configuration(scenario_from_dict(OVERFLOW_MAP))


@pytest.mark.parametrize("argv", [["metrics"], ["check", "--relation", "OZAWA_E2"]])
def test_cli_rejects_value_map_past_the_float_range_with_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW_MAP), encoding="utf-8")
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("scenario error: scenario.value_map: ")
    assert captured.err.count("\n") == 1


def test_search_with_value_map_past_the_float_range_is_a_usage_error(capsys):
    argv = ["search", "--relation", "OZAWA_E2", "--family", "shift", "--budget", "3",
            "--seed", "0", "--value-map", "scale:1e308"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


# Trees built in Python, which no JSON file can produce: the error message
# must not format the offending value in full.
def test_list_nested_100k_deep_under_state_is_a_scenario_error():
    nested: list = []
    for _ in range(100_000):
        nested = [nested]
    doc = json.loads(json.dumps(BASE))
    doc["state"] = nested
    with pytest.raises(ScenarioError, match=r"^scenario\.state\[0\]: expected a \[re, im\] pair"):
        scenario_from_dict(doc)


def test_schema_version_of_5000_digits_is_a_scenario_error():
    doc = json.loads(json.dumps(BASE))
    doc["schema_version"] = 10**5000
    with pytest.raises(ScenarioError, match=r"^scenario\.schema_version: unsupported schema_version"):
        scenario_from_dict(doc)


def test_family_that_is_not_a_string_is_a_scenario_error():
    doc = json.loads(json.dumps(BASE))
    doc["model"]["family"] = []
    with pytest.raises(ScenarioError, match=r"^scenario\.model\.family: unknown family \[\]"):
        scenario_from_dict(doc)


# Values a float holds but whose statistics overflow: the shift readouts
# centre on -1..2, so scale:1e200 reaches 2e200, and x0 = diag(1e200, -1e200)
# has spectral norm 1e200.  Both exceed the scale bound of 1e150.
STATISTICS_OVERFLOW = {
    "value-map": ({**OVERFLOW_MAP, "state": "+x", "value_map": "scale:1e200"}, "value_map"),
    "observable": (
        {**BASE, "observables": {"x0": [[[1e200, 0], [0, 0]], [[0, 0], [-1e200, 0]]], "y0": "sigma_y"}},
        "observables.x0",
    ),
}


@pytest.mark.parametrize("doc,path", STATISTICS_OVERFLOW.values(), ids=STATISTICS_OVERFLOW)
def test_statistics_past_the_float_range_are_a_scenario_error(doc, path):
    with pytest.raises(ScenarioError, match=rf"^scenario\.{path}: .* exceeds the bound 1e\+150"):
        build_configuration(scenario_from_dict(doc))


def test_values_at_the_scale_bound_are_accepted():
    doc = {**BASE, "state": "+y", "value_map": "scale:1e150"}
    cfg = build_configuration(scenario_from_dict(doc))
    v = check("OZAWA_E2", cfg.model, cfg.state, cfg.x0, cfg.y0)
    assert math.isfinite(v.lhs) and v.holds


# herm_eig trusts eigh's own decomposition: 1e6 * sigma_x reconstructs only
# to about 1.2e-10, which is relative round-off, not an invalid observable.
def test_metrics_on_x0_of_norm_1e6_exits_0(capsys, tmp_path):
    sigmas = []
    for scale in (1.0, 1e6):
        doc = {**BASE, "state": "+z",
               "observables": {"x0": [[[0, 0], [scale, 0]], [[scale, 0], [0, 0]]], "y0": "sigma_y"}}
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["metrics", str(path), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        sigmas.append(json.loads(captured.out)["sigma_x0"])
    assert sigmas[1] == pytest.approx(1e6 * sigmas[0], rel=1e-12)


# 1e200 entries overflow a state's norm to inf, and U^dag U to inf and nan.
OVERFLOWING_CHECKS = {
    "state": ({**BASE, "state": [[1e200, 0], [0, 0]]}, r"state: state not normalized: \|\|psi\|\| = inf"),
    "probe_state": (
        {**BASE, "model": {"family": "shift", "probe_dim": 2, "probe_state": [[1e200, 0], [0, 0]]}},
        r"model\.probe_state: state not normalized: \|\|psi\|\| = inf",
    ),
    "unitary": (
        {**BASE, "model": {"family": "explicit", "object_dim": 2, "unitary": [[[1e200, 1e200]] * 4] * 4,
                           "probe_state": [[1, 0], [0, 0]], "meter": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}},
        r"model\.unitary: non-unitary interaction \(max \|U\^dag U - I\| = (nan|inf)\)",
    ),
}


@pytest.mark.parametrize("doc,message", OVERFLOWING_CHECKS.values(), ids=OVERFLOWING_CHECKS)
def test_field_check_that_overflows_is_one_scenario_error(doc, message):
    """An inf or nan from the check rejects the field, and numpy warns of no overflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match=rf"^scenario\.{message}$"):
            scenario_from_dict(doc)


def test_shift_register_past_the_bound_exits_2_without_allocating(capsys, tmp_path):
    """Probe dim 5000 would take a 1.6 GB interaction; it is refused before the build."""
    probe = [[0, 0]] * 5000
    probe[1] = [1, 0]
    doc = {**BASE, "model": {"family": "shift", "probe_dim": 5000, "probe_state": probe},
           "observables": {"x0": "sigma_z", "y0": "sigma_y"}}
    path = tmp_path / "register.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == "scenario error: scenario.model: object dim 2 * probe_dim 5000 exceeds the shift bound 256\n"
    assert peak < 2**24


DUPLICATE_KEYS = {
    "top-level": (
        json.dumps({**BASE, "tolerance": 1e-9})[:-1] + ', "tolerance": 0.5}',
        "scenario error: duplicate key 'tolerance'\n",
    ),
    "nested": (
        _with_phi('40, "phi_degrees": 90'),
        "scenario error: duplicate key 'phi_degrees'\n",
    ),
}


@pytest.mark.parametrize("text,stderr", DUPLICATE_KEYS.values(), ids=DUPLICATE_KEYS)
def test_duplicate_key_is_a_scenario_error(capsys, tmp_path, text, stderr):
    """json.loads would keep the last value; a scenario with a repeated key is rejected."""
    path = tmp_path / "duplicate.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, path)
    assert code == 2
    assert out == ""
    assert err == stderr


@pytest.mark.parametrize("magnitude", [1e20, 1e140])
def test_shift_x0_that_leaves_no_pointer_level_is_one_short_line(capsys, tmp_path, magnitude):
    """Shifts 0 and 10^20 (or 10^140) leave a 4-level register no window; the diagnostic prints no bound."""
    doc = {**BASE, "model": {"family": "shift", "probe_dim": 4,
                             "probe_state": [[1, 0], [0, 0], [0, 0], [0, 0]]},
           "observables": {"x0": [[[magnitude, 0], [0, 0]], [[0, 0], [0, 0]]], "y0": "sigma_y"}}
    path = tmp_path / "window.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _run(capsys, path)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and len(err) < 200
    assert "no pointer level" in err
