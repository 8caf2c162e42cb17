from __future__ import annotations

import csv
import enum
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from murel.relations import RelationId
from murel.reporting import (
    COLUMNS,
    REPORT_HEADER_COMMENT,
    configuration_row,
    render_csv,
    render_json_lines,
    spin_reference_rows,
)
from murel.scenario import build_configuration, make_scenario_doc, scenario_from_dict


def build_cfg(phi=40.0, state="+x", value_map="identity", scenario_id="row-demo"):
    doc = make_scenario_doc(
        family="sigma_phi",
        model_params={"phi_degrees": phi},
        state_spec=state,
        x0_spec="sigma_x",
        y0_spec="sigma_y",
        value_map_spec=value_map,
        scenario_id=scenario_id,
    )
    return build_configuration(scenario_from_dict(doc))


class TestColumns:
    def test_relation_columns_follow_declaration_order(self):
        tail = COLUMNS[-4 * len(RelationId):]
        expected = [
            f"{rid.value}_{part}"
            for rid in RelationId
            for part in ("lhs", "rhs", "slack", "holds")
        ]
        assert tail == expected

    def test_no_duplicate_columns(self):
        assert len(COLUMNS) == len(set(COLUMNS))


class TestRowBuilder:
    def test_row_covers_every_column(self):
        row = configuration_row(build_cfg())
        assert set(row) == set(COLUMNS)

    def test_two_valued_outcomes_fill_probability_columns(self):
        row = configuration_row(build_cfg(state="+z"))
        assert row["p_plus"] == pytest.approx(0.5, abs=1e-12)
        assert row["p_minus"] == pytest.approx(0.5, abs=1e-12)

    def test_rescaled_outcomes_leave_probability_columns_empty(self):
        row = configuration_row(build_cfg(value_map="scale:2"))
        assert row["p_plus"] is None and row["p_minus"] is None

    def test_variance_identity_residual(self):
        row = configuration_row(build_cfg())
        want = row["sigma_mvo"] ** 2 - row["sigma_x0"] ** 2 - row["eps_x0"] ** 2
        assert row["variance_identity_residual"] == pytest.approx(want, abs=1e-15)

    def test_unknown_extras_rejected(self):
        with pytest.raises(ValueError, match="unknown columns"):
            configuration_row(build_cfg(), extras={"not_a_column": 1})

    def test_known_extras_are_applied_to_the_row(self):
        row = configuration_row(build_cfg(), extras={"eps_rand_flag": "checked", "param_value": 2.5})
        assert (row["eps_rand_flag"], row["param_value"]) == ("checked", 2.5)

    def test_explicit_state_label_is_compact_json(self):
        doc = make_scenario_doc(
            family="sigma_phi",
            model_params={"phi_degrees": 0.0},
            state_spec=[1.0 + 0.0j, 0.0 + 0.0j],
            x0_spec="sigma_x",
            y0_spec="sigma_y",
        )
        row = configuration_row(build_configuration(scenario_from_dict(doc)))
        assert json.loads(row["state"]) == [[1.0, 0.0], [0.0, 0.0]]


class TestRenderers:
    def test_csv_floats_round_trip(self):
        rows = [configuration_row(build_cfg())]
        text = render_csv(rows)
        lines = text.splitlines()
        assert lines[0] == REPORT_HEADER_COMMENT
        parsed = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        assert len(parsed) == 1
        assert float(parsed[0]["eps_x0"]) == rows[0]["eps_x0"]
        assert parsed[0]["OZAWA_E2_holds"] == "true"
        assert parsed[0]["eps_rand_flag"] == ""

    def test_json_lines_round_trip(self):
        rows = [configuration_row(build_cfg())]
        parsed = json.loads(render_json_lines(rows).splitlines()[0])
        assert parsed["eps_x0"] == rows[0]["eps_x0"]
        assert parsed["eps_rand_half_angle"] is None
        assert parsed["ROBERTSON_holds"] is True

    def test_missing_values_render_empty_or_null(self):
        rows = [configuration_row(build_cfg(state="+y"))]  # eps_rand undefined
        text = render_csv(rows)
        parsed = list(csv.DictReader(io.StringIO("\n".join(text.splitlines()[1:]))))
        assert parsed[0]["eps_rand"] == ""
        json_row = json.loads(render_json_lines(rows))
        assert json_row["eps_rand"] is None


class _Level(enum.IntEnum):
    THREE = 3


class _Float(float):
    pass


# id: (value, CSV cell, JSON value); the CSV cell is the JSON value with null empty and booleans lower-case.
CELLS = {
    "none": (None, "", None),
    "true": (True, "true", True),
    "false": (False, "false", False),
    "int": (3, "3", 3),
    "numpy-int": (np.int64(3), "3", 3),
    "int-enum": (_Level.THREE, "3", 3),
    "float": (0.1, "0.1", 0.1),
    "negative-zero": (-0.0, "-0.0", -0.0),
    "numpy-float": (np.float64(0.1), "0.1", 0.1),
    "numpy-float32": (np.float32(0.5), "0.5", 0.5),
    "float-subclass": (_Float(0.1), "0.1", 0.1),
    "inf": (math.inf, "inf", "inf"),
    "minus-inf": (-math.inf, "-inf", "-inf"),
    "nan": (math.nan, "nan", "nan"),
    "numpy-nan": (np.float64("nan"), "nan", "nan"),
    "str": ("DISCREPANCY", "DISCREPANCY", "DISCREPANCY"),
    "numpy-bool": (np.bool_(True), "True", "True"),
    "path": (Path("runs") / "a.json", str(Path("runs") / "a.json"), str(Path("runs") / "a.json")),
}


@pytest.mark.parametrize("value,cell,json_value", CELLS.values(), ids=CELLS)
def test_every_value_renders_as_its_json_value_in_both_formats(value, cell, json_value):
    row = {"eps_rand_flag": value}
    parsed = list(csv.DictReader(io.StringIO(render_csv([row]).split("\n", 1)[1])))
    assert parsed[0]["eps_rand_flag"] == cell
    rendered = json.loads(render_json_lines([row]))["eps_rand_flag"]
    assert rendered == json_value and type(rendered) is type(json_value)


@pytest.fixture(scope="module")
def rows():
    return spin_reference_rows()


class TestSpinReferenceTable:
    def test_sections_present(self, rows):
        sections = {r["section"] for r in rows}
        assert sections == {
            "pointer_anomaly",
            "outcome_independence",
            "eigenstate_error_laws",
            "calibration_residuals",
            "relation_verdicts",
            "rescale_demo",
        }

    def test_pointer_anomaly_values(self, rows):
        (row,) = [r for r in rows if r["section"] == "pointer_anomaly"]
        assert row["p_plus"] == pytest.approx(1.0, abs=1e-9)
        assert row["eps_x0"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert row["sigma_mvo"] == pytest.approx(0.0, abs=1e-9)
        assert row["SQL_E14_holds"] is False

    def test_outcome_independence_rows(self, rows):
        subset = [r for r in rows if r["section"] == "outcome_independence"]
        assert [r["phi_degrees"] for r in subset] == [0.0, 40.0, 90.0]
        for r in subset:
            assert r["p_plus"] == pytest.approx(0.5, abs=1e-9)
            assert r["p_minus"] == pytest.approx(0.5, abs=1e-9)

    def test_error_law_rows_report_both_random_error_candidates(self, rows):
        subset = [r for r in rows if r["section"] == "eigenstate_error_laws"]
        at40 = [r for r in subset if r["phi_degrees"] == 40.0 and r["state"] == "+x"]
        (r,) = at40
        assert r["eps_rand"] == pytest.approx(0.6427876096865393, abs=1e-12)
        assert r["eps_rand_half_angle"] == pytest.approx(0.3420201433256687, abs=1e-12)
        assert r["eps_rand_flag"] == "DISCREPANCY"
        at0 = [r for r in subset if r["phi_degrees"] == 0.0 and r["state"] == "+x"]
        assert at0[0]["eps_rand_flag"] == "consistent"

    def test_calibration_residual_rows_match_laws(self, rows):
        subset = [r for r in rows if r["section"] == "calibration_residuals"]
        assert len(subset) == 10
        for r in subset:
            phi = math.radians(r["param_value"])
            assert r["unbias_res_x0"] == pytest.approx(2 * abs(math.sin(phi / 2)), abs=1e-9)
            assert r["unbias_res_xt"] == pytest.approx(1 - math.cos(phi), abs=1e-9)

    def test_rescale_demo_contrast(self, rows):
        (r,) = [r for r in rows if r["section"] == "rescale_demo"]
        assert r["OZAWA_E2_holds"] is True
        assert r["MVOSTD_E12_holds"] is False
        assert r["SUM_E13_holds"] is False

    def test_scenario_ids_are_unique(self, rows):
        ids = [r["scenario_id"] for r in rows]
        assert len(ids) == len(set(ids))

    def test_rows_are_deterministic(self, rows):
        again = spin_reference_rows()
        assert render_csv(rows) == render_csv(again)
