"""Tabular reports: metric/verdict rows, CSV and JSON-lines rendering.

Both renderers share one fixed column set so sweeps from different runs can
be concatenated and diffed.  Numbers are written with full round-trip
precision (shortest repr), booleans as "true"/"false", missing values as
empty cells (CSV) or null (JSON lines).  One table writer serves both
renderers and the CLI's ``check`` and ``search`` records.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any

import numpy as np

from .metrics import Evaluation
from .model import READOUT_MERGE_GAP
from .relations import RelationId, verdicts
from .scenario import BuiltConfiguration, Scenario, build_configuration, vector_pairs

__all__ = [
    "COLUMNS",
    "REPORT_HEADER_COMMENT",
    "configuration_row",
    "render_csv",
    "render_json_lines",
    "spin_reference_rows",
]

REPORT_HEADER_COMMENT = "# murel report schema_version=1"

_METRIC_COLUMNS = [
    "eps_x0",
    "eps_xt",
    "eta_y0",
    "sigma_x0",
    "sigma_y0",
    "sigma_mvo",
    "delta",
    "eps_sys",
    "eps_rand",
    "eps_rand_half_angle",
    "eps_rand_flag",
    "unbias_res_x0",
    "unbias_res_xt",
    "variance_identity_residual",
]

# the lhs, rhs, slack and holds cells of every relation, in declaration order
_VERDICT_COLUMNS = [f"{rid.value}_{part}" for rid in RelationId for part in ("lhs", "rhs", "slack", "holds")]

COLUMNS = [
    "scenario_id",
    "section",
    "family",
    "phi_degrees",
    "state",
    "param_name",
    "param_value",
    "p_plus",
    "p_minus",
    "outcomes",
    *_METRIC_COLUMNS,
    *_VERDICT_COLUMNS,
]


def _state_label(spec) -> str:
    if isinstance(spec, str):
        return spec
    return json.dumps(vector_pairs(np.asarray(spec)), separators=(",", ":"))


def _outcome_string(pairs) -> str:
    return ";".join(f"{float(v)!r}:{float(p)!r}" for v, p in pairs)


def configuration_row(
    cfg: BuiltConfiguration,
    *,
    section: str = "",
    param_name: str = "",
    param_value: float | None = None,
    extras: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """One report row: metrics, outcome statistics, and all relation verdicts."""
    ev = Evaluation(cfg.model, cfg.state, cfg.x0, cfg.y0)
    report = ev.report()
    pairs = ev.outcome_probabilities()

    row: dict[str, Any] = dict.fromkeys(COLUMNS)
    sc = cfg.scenario
    row["scenario_id"] = sc.scenario_id or ""
    row["section"] = section
    row["family"] = sc.family
    row["phi_degrees"] = sc.model_params.get("phi_degrees")
    row["state"] = _state_label(sc.state_spec)
    row["param_name"] = param_name
    row["param_value"] = param_value
    row["outcomes"] = _outcome_string(pairs)
    values = [v for v, _ in pairs]
    if len(values) <= 2 and all(min(abs(v - 1.0), abs(v + 1.0)) <= READOUT_MERGE_GAP for v in values):
        plus = sum(p for v, p in pairs if abs(v - 1.0) <= READOUT_MERGE_GAP)
        minus = sum(p for v, p in pairs if abs(v + 1.0) <= READOUT_MERGE_GAP)
        row["p_plus"] = float(plus)
        row["p_minus"] = float(minus)

    row.update(vars(report))  # the report fields are metric columns of the same names
    row["variance_identity_residual"] = (
        report.sigma_mvo**2 - report.sigma_x0**2 - report.eps_x0**2
    )
    row.update(zip(_VERDICT_COLUMNS, [
        cell for v in verdicts(ev, tol=cfg.tolerance) for cell in (v.lhs, v.rhs, v.slack, v.holds)
    ]))
    if extras:
        unknown = sorted(set(extras) - set(COLUMNS))
        if unknown:
            raise ValueError(f"extras carry unknown columns {unknown!r}")
        row.update(extras)
    return row


def _json_value(value: Any) -> Any:
    if type(value) is not float:  # an exact float, the common case, skips the type tests
        if value is None or isinstance(value, (bool, str)):
            return value
        if isinstance(value, (int, np.integer)):
            return int(value)
        if not isinstance(value, (float, np.floating)):
            return str(value)
        value = float(value)
    return value if math.isfinite(value) else repr(value)


def _cell(value: Any) -> Any:
    """A CSV cell: the JSON value, with null empty and booleans lower-case.

    An int, a finite float or a str is returned as it is: csv.writer writes
    a number by str(), and a float's str() is its repr.
    """
    value = _json_value(value)
    if value is None:
        return ""
    if value is True or value is False:
        return "true" if value else "false"
    return value


_json_line = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps(..., separators=(",", ":"))


def _table(rows: list[dict[str, Any]], columns: list[str], fmt: str) -> str:
    """Rows under a column list: CSV with a header line, or ("json") one JSON object per line.

    Every cell goes through one rule per format: _json_value for JSON lines, _cell for CSV.
    """
    if fmt == "json":
        return "".join(
            _json_line(dict(zip(columns, map(_json_value, map(row.get, columns))))) + "\n"
            for row in rows
        )
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(_cell, map(row.get, columns)) for row in rows)
    return out.getvalue()


def render_csv(rows: list[dict[str, Any]]) -> str:
    """Fixed-column CSV with a schema comment line above the header."""
    return REPORT_HEADER_COMMENT + "\n" + _table(rows, COLUMNS, "csv")


def render_json_lines(rows: list[dict[str, Any]]) -> str:
    return _table(rows, COLUMNS, "json")


# (section, phi_degrees, state, scenario_id, value_map) of each spin-half reference row, in table order
_SPIN_ROWS = [
    ("pointer_anomaly", 90.0, "+y", "spin-pointer-anomaly-phi90-plus-y", "identity"),
    *[
        ("outcome_independence", phi, "+z", f"spin-outcome-independence-phi{phi:g}-plus-z", "identity")
        for phi in (0.0, 40.0, 90.0)
    ],
    *[
        ("eigenstate_error_laws", phi, state, f"spin-eigenstate-error-phi{phi:g}-{name}", "identity")
        for state, name in (("+x", "plusx"), ("-x", "minusx"))
        for phi in (0.0, 40.0, 90.0)
    ],
    *[
        ("calibration_residuals", phi, "+z", f"spin-calibration-phi{phi:g}-plus-z", "identity")
        for phi in (10.0 * step for step in range(10))
    ],
    ("relation_verdicts", 90.0, "+y", "spin-verdicts-phi90-plus-y", "identity"),
    ("relation_verdicts", 0.0, "+z", "spin-verdicts-phi0-plus-z", "identity"),
    ("relation_verdicts", 40.0, "+x", "spin-verdicts-phi40-plus-x", "identity"),
    ("rescale_demo", 90.0, "+z", "spin-rescale-phi90-plus-z-scale100", "scale:100"),
]


def spin_reference_rows() -> list[dict[str, Any]]:
    """The deterministic spin-half reference table.

    Sections: pointer_anomaly (the +y state at 90 degrees reads +1 with
    certainty while carrying maximal error), outcome_independence (+z gives
    a fair coin at every detuning), eigenstate_error_laws (systematic and
    random error on the +-x eigenstates, including both candidate random
    error laws), calibration_residuals (bias operator norms across the
    detuning sweep), relation_verdicts (three spotlight configurations),
    and rescale_demo (value map scale:100 keeps error-based relations valid
    while breaking the spread-based ones).
    """
    rows: list[dict[str, Any]] = []
    computed: dict[tuple[float, str, str], dict[str, Any]] = {}  # (phi, state, value map) -> its row
    for section, phi, state, scenario_id, value_map in _SPIN_ROWS:
        key = (phi, state, value_map)
        if key not in computed:  # each distinct configuration is evaluated once
            computed[key] = configuration_row(build_configuration(Scenario._trusted(
                family="sigma_phi",  # literal fields, valid by construction
                model_params={"phi_degrees": phi},
                state_spec=state,
                x0_spec="sigma_x",
                y0_spec="sigma_y",
                value_map_spec=value_map,
                scenario_id=scenario_id,
            )))
        swept = section == "calibration_residuals"
        row = {**computed[key], "scenario_id": scenario_id, "section": section,
               "param_name": "phi_degrees" if swept else "", "param_value": phi if swept else None}
        if section == "eigenstate_error_laws":
            half_angle = abs(math.sin(math.radians(phi) / 2.0))
            decomposed = row["eps_rand"]
            flag = ""
            if decomposed is not None:
                flag = "consistent" if abs(decomposed - half_angle) <= 1e-9 else "DISCREPANCY"
            row["eps_rand_half_angle"] = half_angle
            row["eps_rand_flag"] = flag
        rows.append(row)
    return rows
