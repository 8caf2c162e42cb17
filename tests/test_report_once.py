"""The report path does each piece of work once, and every output bit stays the same.

The reference table evaluates each distinct (phi, state, value map) once and
copies that row for a repeat.  A sweep resolves x0, y0, the state and the value
map once and reads each grid value by the real-number rule.  Both bias norms
come from one call of the SVD gufunc behind np.linalg.svd.  The table writer
takes a table's cells in one pass, each by the rule of its type, with one
repr per distinct float.  Each test keeps the per-item path as its reference
and requires equal bits.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import types

import numpy as np
import pytest
from conftest import random_hermitian

import murel.linalg
import murel.reporting
import murel.scenario
from murel.cli import main
from murel.linalg import _singular_values, spectral_norm
from murel.metrics import Evaluation, unbiasedness_residual_x0, unbiasedness_residual_xt
from murel.model import build_sigma_phi, named_qubit_state, pauli_observable, rescale_mvo
from murel.reporting import (
    COLUMNS,
    REPORT_HEADER_COMMENT,
    _SPIN_ROWS,
    _cell,
    _json_value,
    _table,
    configuration_row,
    render_csv,
    render_json_lines,
    spin_reference_rows,
)
from murel.scenario import Scenario, build_configuration, parse_scenario

SWEEP_SCENARIO = {
    "schema_version": 1,
    "id": "sweep-plus-x",
    "model": {"family": "sigma_phi", "phi_degrees": 0.0},
    "state": "+x",
    "observables": {"x0": "sigma_x", "y0": "sigma_y"},
}


def _same_cells(got: dict, expected: dict) -> None:
    """Equal keys, and equal cells, floats compared by their hex digits."""
    assert list(got) == list(expected)
    for key, value in expected.items():
        assert type(got[key]) is type(value), key
        if type(value) is float:
            assert got[key].hex() == value.hex(), key
        else:
            assert got[key] == value, key


# --- the SVD gufunc ---------------------------------------------------------------------------

def test_spectral_norm_raises_linalgerror_where_the_svd_gufunc_returns_nan(monkeypatch):
    fake = types.SimpleNamespace(svd=lambda a, signature: np.full(a.shape[:-1], np.nan))
    monkeypatch.setattr(murel.linalg, "_umath_linalg", fake)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        spectral_norm(np.eye(2))
    ev = Evaluation(build_sigma_phi(0.7), named_qubit_state("+x"), pauli_observable("sigma_x"),
                    pauli_observable("sigma_y"))
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        ev.report()


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_stacked_singular_values_equal_np_linalg_svd_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    stack = np.array([random_hermitian(dim, rng) + 1j * random_hermitian(dim, rng) for _ in range(4)])
    got = _singular_values(stack)
    for s, a in zip(got, stack):
        expected = np.linalg.svd(a, compute_uv=False)
        assert s.dtype == expected.dtype and s.tobytes() == expected.tobytes()
    assert spectral_norm(stack[0]) == float(np.linalg.svd(stack[0], compute_uv=False)[0])


def test_spectral_norm_takes_a_matrix():
    with pytest.raises(np.linalg.LinAlgError, match="two-dimensional"):
        spectral_norm(np.ones(3))


@pytest.mark.parametrize("value_map", [None, lambda v: 3.0 * v - 0.5], ids=["shared", "rescaled"])
def test_report_bias_norms_equal_one_spectral_norm_per_operator(value_map):
    model = build_sigma_phi(0.9)
    if value_map is not None:  # a value map of its own for x0, so the two maps differ
        model = rescale_mvo(model, value_map)
        assert model.measurement_values[0] is not model.measurement_values[1]
    x0 = pauli_observable("sigma_x")
    report = Evaluation(model, named_qubit_state("+z"), x0, pauli_observable("sigma_y")).report()
    assert report.unbias_res_x0.hex() == unbiasedness_residual_x0(model, x0).hex()
    assert report.unbias_res_xt.hex() == unbiasedness_residual_xt(model, x0).hex()


# --- the reference table ----------------------------------------------------------------------

def test_reference_table_evaluates_each_distinct_configuration_once(monkeypatch):
    built = []
    build = murel.reporting.build_configuration
    monkeypatch.setattr(murel.reporting, "build_configuration", lambda sc: built.append(sc) or build(sc))
    rows = spin_reference_rows()
    assert len(rows) == len(_SPIN_ROWS) == 24
    assert len(built) == len({(phi, state, value_map) for _, phi, state, _, value_map in _SPIN_ROWS}) == 18


def test_every_reference_row_equals_a_fresh_row_of_its_own_scenario():
    for row, (section, phi, state, scenario_id, value_map) in zip(spin_reference_rows(), _SPIN_ROWS):
        cfg = build_configuration(Scenario(family="sigma_phi", model_params={"phi_degrees": phi},
                                           state_spec=state, x0_spec="sigma_x", y0_spec="sigma_y",
                                           value_map_spec=value_map, scenario_id=scenario_id))
        swept = section == "calibration_residuals"
        expected = configuration_row(cfg, section=section, param_name="phi_degrees" if swept else "",
                                     param_value=phi if swept else None)
        if section == "eigenstate_error_laws":
            half_angle = abs(math.sin(math.radians(phi) / 2.0))
            assert row.pop("eps_rand_half_angle").hex() == half_angle.hex()
            flag = "consistent" if abs(expected["eps_rand"] - half_angle) <= 1e-9 else "DISCREPANCY"
            assert row.pop("eps_rand_flag") == flag
            expected.pop("eps_rand_half_angle"), expected.pop("eps_rand_flag")
        _same_cells(row, expected)


# --- the sweep --------------------------------------------------------------------------------

@pytest.fixture
def sweep_file(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP_SCENARIO), encoding="utf-8")
    return str(path)


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_sweep_resolves_its_observables_once_and_equals_per_point_builds(capsys, monkeypatch, sweep_file, fmt):
    grid = np.random.default_rng(3).uniform(-90.0, 400.0, 24).tolist()
    resolved = []
    resolve = murel.scenario._resolve_observable
    monkeypatch.setattr(murel.scenario, "_resolve_observable",
                        lambda spec, path: resolved.append(path) or resolve(spec, path))
    code, out, err = _run(capsys, "sweep", sweep_file, "--param", "phi_degrees",
                          "--grid=" + ",".join(map(repr, grid)), "--format", fmt)
    assert (code, err) == (0, "")
    assert resolved == ["scenario.observables.x0", "scenario.observables.y0"]

    # the reference: each grid point validated and built from the scenario afresh
    sc = parse_scenario(json.dumps(SWEEP_SCENARIO))
    rows = [
        configuration_row(
            build_configuration(dataclasses.replace(sc, model_params={**sc.model_params, "phi_degrees": v})),
            section="sweep", param_name="phi_degrees", param_value=v,
        )
        for v in grid
    ]
    assert out == (render_json_lines(rows) if fmt == "json" else render_csv(rows))


@pytest.mark.parametrize("grid,shown", [("nan", "nan"), ("1e400", "inf"), ("0,40,-1e400", "-inf")])
def test_a_non_finite_grid_value_exits_2_with_one_line(capsys, sweep_file, grid, shown):
    code, out, err = _run(capsys, "sweep", sweep_file, "--param", "phi_degrees", "--grid", grid)
    assert (code, out) == (2, "")
    assert err == f"scenario error: scenario.model.phi_degrees: non-finite number {shown}\n"


# --- the table writer -------------------------------------------------------------------------

def _per_cell_table(rows: list[dict], columns: list[str], fmt: str) -> str:
    """Every cell through _json_value or _cell: the writer without its inline cases."""
    if fmt == "json":
        return "".join(
            json.dumps({k: _json_value(row.get(k)) for k in columns}, separators=(",", ":")) + "\n"
            for row in rows
        )
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(row.get(k)) for k in columns] for row in rows)
    return out.getvalue()


CELLS = [0.25, -0.0, 1e-300, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
         np.float64(0.1), np.float64(math.nan), np.float64(-math.inf), np.float32(0.5),
         np.int64(-7), 3, True, False, np.bool_(True), None, "", "a,b", 'say "x"', "line\nbreak"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_inline_cells_write_as_the_per_cell_path(fmt):
    rng = np.random.default_rng(5)
    columns = [f"c{i}" for i in range(12)] + ["missing"]
    rows = [{c: CELLS[rng.integers(len(CELLS))] for c in columns[:-1]} for _ in range(200)]
    rows.append(dict(zip(columns, CELLS)))
    assert _table(rows, columns, fmt) == _per_cell_table(rows, columns, fmt)
    report_rows = spin_reference_rows()
    assert _table(report_rows, COLUMNS, fmt) == _per_cell_table(report_rows, COLUMNS, fmt)


# Columns whose cells are each of one kind, in row order: the writer takes a float, a bool and a str by its
# type, and keeps one text per distinct float of a table, so a column of one kind, repeated values, both zeros
# and several nan objects each take a path of their own.
NAN = float("nan")
HOMOGENEOUS = {
    "floats": [0.25, -0.0, 1e-300, 0.0, 0.1, -0.0, 1.7976931348623157e308, 5e-324, 0.1, -2.5],
    "floats-nan": [0.5, math.nan, 0.1, NAN, math.nan, -0.0, 0.5, 0.0, 2.0, NAN],
    "floats-inf": [math.inf, 0.1, 0.0, -0.0, math.inf, 3.0, 0.25, 1e-300, -1.0, 0.1],
    "floats-ninf": [0.1, -math.inf, -0.0, 0.1, 0.0, -math.inf, 7.5, 0.25, 1e308, -1e-300],
    "float64": [np.float64(v) for v in (0.1, -0.0, 1e-300, 0.0, math.nan, 0.1, -math.inf, 2.5, 1e16, 0.25)],
    "floats-none": [0.1, None, -0.0, None, 0.0, 0.1, None, 1e-300, 0.25, None],
    "bools": [True, False, False, True, True, False, True, False, True, True],
    "np-bools": [np.bool_(v) for v in (True, False, False, True, True, False, True, False, True, True)],
    "strings": ["détuning-vecteur", "a,b", 'say "x"', "line\nbreak", "", "plain", "tab\there", "100%",
                "[[0.6,0.0],[0.0,0.8]]", "ünïcödé \u2603"],
}


def _homogeneous_rows(columns: list[str], kinds: list[str]) -> list[dict]:
    return [{c: HOMOGENEOUS[kind][i] for c, kind in zip(columns, kinds)} for i in range(10)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", list(HOMOGENEOUS))
def test_a_column_of_one_kind_writes_as_the_per_cell_path(fmt, kind):
    rows = _homogeneous_rows(["c"], [kind])
    for table in (rows, rows[:1], rows[::-1], []):
        assert _table(table, ["c"], fmt) == _per_cell_table(table, ["c"], fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_columns_of_every_kind_write_as_the_per_cell_path(fmt):
    kinds = list(HOMOGENEOUS) * 2
    columns = [f"c{i}" for i in range(len(kinds))] + ["per%cent", 'quo"te', "clé"]
    rows = _homogeneous_rows(columns, kinds + ["floats", "strings", "bools"])
    for table in (rows, rows[:1], rows[3:], []):
        assert _table(table, columns, fmt) == _per_cell_table(table, columns, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_columns_of_every_kind_write_as_the_per_cell_path(fmt):
    """The COLUMNS template, built once, under columns of each kind."""
    rows = _homogeneous_rows(COLUMNS, [list(HOMOGENEOUS)[i % len(HOMOGENEOUS)] for i in range(len(COLUMNS))])
    for table in (rows, rows[:1], []):
        expected = _per_cell_table(table, COLUMNS, fmt)
        if fmt == "json":
            assert render_json_lines(table) == expected
        else:
            assert render_csv(table) == REPORT_HEADER_COMMENT + "\n" + expected
