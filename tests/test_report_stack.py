"""Report tables as one stack: every row of a table comes from one stacked statistics pass.

metrics._table_statistics evaluates the configurations that share object dim,
probe dim and meter with numpy calls over a leading configuration axis;
metrics.Evaluation stays the per-candidate evaluator of check, check_all and the
search.  These tests pin the two together bit for bit: every statistic, outcome,
conditional pair and verdict side of a stacked configuration equals the one
Evaluation and check give it alone, by float.hex and by type, at stack sizes 1,
2 and 24, so the two evaluators cannot drift apart.  A row's verdict cells
come from relations._verdict_cells, without a RelationVerdict each; they equal
the row's own verdicts, and a table with a non-finite slack raises what its
first failing row raises alone.
"""
from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from conftest import random_hermitian, random_integer_spectrum_observable, random_state_vector
from test_nonfinite_verdicts import HUGE_X0, SCALED_VALUES

import murel.metrics
from murel.cli import main
from murel.linalg import PureState, herm_eig
from murel.metrics import Evaluation, MetricsReport, _table_statistics
from murel.model import NAMED_OBSERVABLES, NAMED_QUBIT_STATES, ZERO_PROB, IndirectModel, build_sigma_phi, rescale_mvo
from murel.relations import RelationId, check, verdicts
from murel.reporting import _configuration_rows, configuration_row, spin_reference_rows
from murel.scenario import BuiltConfiguration, Scenario, ScenarioError, build_configuration
from murel.search import SearchSpace, haar_unitary, search_min_slack

SIZES = [1, 2, 24]
VALUE_MAPS = ["identity", "scale:2.5", "shift:-0.75", "center_on_meter_mean", "scale:-3"]
QUBIT_OBSERVABLES = ["sigma_x", "sigma_y", "sigma_z"]
NON_FINITE = {"scaled-values": SCALED_VALUES, "huge-x0": HUGE_X0}
SWEEP_SCENARIO = {
    "schema_version": 1,
    "id": "stack-sweep",
    "model": {"family": "sigma_phi", "phi_degrees": 0.0},
    "state": "+y",
    "observables": {"x0": "sigma_x", "y0": "sigma_y"},
}


def _same(got, expected, where: str = "") -> None:
    """Equal values of equal types, floats by their hex digits, lists and tuples item by item."""
    assert type(got) is type(expected), where
    if type(expected) is float:
        assert got.hex() == expected.hex(), where
    elif isinstance(expected, (list, tuple)):
        assert len(got) == len(expected), where
        for i, (a, b) in enumerate(zip(got, expected)):
            _same(a, b, f"{where}[{i}]")
    else:
        assert got == expected, where


def _sigma_phi(rng, value_map: str) -> Scenario:
    labels = list(NAMED_QUBIT_STATES)
    state = labels[rng.integers(len(labels))] if rng.random() < 0.8 else random_state_vector(2, rng)
    return Scenario(family="sigma_phi", model_params={"phi_degrees": float(rng.uniform(-400.0, 400.0))},
                    state_spec=state, x0_spec=QUBIT_OBSERVABLES[rng.integers(3)],
                    y0_spec=QUBIT_OBSERVABLES[rng.integers(3)], value_map_spec=value_map)


def _shift(rng, value_map: str) -> Scenario:
    x0 = random_integer_spectrum_observable(2, rng, 0, 1).matrix
    probe = np.zeros(4, dtype=complex)
    probe[:3] = random_state_vector(3, rng)  # levels 0..2: a shift by 0 or 1 stays on the register
    return Scenario(family="shift", model_params={"probe_dim": 4, "probe_state": probe},
                    state_spec=random_state_vector(2, rng), x0_spec=x0, y0_spec=random_hermitian(2, rng),
                    value_map_spec=value_map)


def _explicit(rng, value_map: str) -> Scenario:
    o, p = 2, 4
    return Scenario(family="explicit",
                    model_params={"object_dim": o, "unitary": haar_unitary(o * p, rng),
                                  "probe_state": random_state_vector(p, rng),
                                  "meter": np.diag(np.arange(p, dtype=complex))},
                    state_spec=random_state_vector(o, rng), x0_spec=random_hermitian(o, rng),
                    y0_spec=random_hermitian(o, rng), value_map_spec=value_map)


SCENARIOS = {"sigma_phi": _sigma_phi, "shift": _shift, "explicit": _explicit}


def _configurations(family: str, n: int, seed: int) -> list[BuiltConfiguration]:
    rng = np.random.default_rng([seed, n, len(family)])
    return [build_configuration(SCENARIOS[family](rng, VALUE_MAPS[i % len(VALUE_MAPS)])) for i in range(n)]


def _parts(cfg: BuiltConfiguration) -> tuple:
    return cfg.model, cfg.state, cfg.x0, cfg.y0


def _same_statistics(stats, ev: Evaluation) -> None:
    _same(list(stats.metrics.values()), list(vars(ev.report()).values()), "report")
    assert list(stats.metrics) == list(vars(ev.report()))
    for name in ("object_bound", "evolved_bound", "sigma_yt"):
        _same(getattr(stats, name), getattr(ev, name), name)
    _same(stats.outcome_probabilities(), ev.outcome_probabilities(), "outcomes")
    for floor in (1e-12, 0.05, 0.3):
        _same(stats.conditional_pairs(floor), ev.conditional_pairs(floor), f"conditional pairs above {floor}")


def _verdict_cells(source) -> list:
    try:
        return [list(vars(v).values()) for v in verdicts(source)]
    except ValueError as e:  # a non-finite slack has no verdict
        return [str(e)]


# --- statistics ------------------------------------------------------------------------------

@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", list(SCENARIOS))
def test_stacked_statistics_equal_evaluations(family, n):
    configs = [_parts(cfg) for cfg in _configurations(family, n, seed=1)]
    stats = _table_statistics(configs)
    assert len(stats) == n
    for s, config in zip(stats, configs):
        ev = Evaluation(*config)
        _same_statistics(s, ev)
        _same(_verdict_cells(s), _verdict_cells(ev), "verdicts")


@pytest.mark.parametrize("n", [1, 24])
@pytest.mark.parametrize("family", list(SCENARIOS))
def test_a_table_record_answers_every_question_an_evaluation_answers(family, n):
    """Each record of a table is an Evaluation, and each of its methods answers as a fresh Evaluation's does."""
    configs = [_parts(cfg) for cfg in _configurations(family, n, seed=8)]
    records = _table_statistics(configs)
    assert len(records) == n
    for record, config in zip(records, configs):
        assert type(record) is Evaluation
        ev = Evaluation(*config)
        report = record.report()
        assert type(report) is MetricsReport
        _same(list(vars(report).values()), list(vars(ev.report()).values()), "report")
        for value, prob, _, _ in ev.readouts:
            if prob > ZERO_PROB:
                _same(record.conditional_resolution(value), ev.conditional_resolution(value), f"readout {value}")
                continue
            with pytest.raises(ValueError) as expected:
                ev.conditional_resolution(value)
            with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
                record.conditional_resolution(value)
        for floor in (1e-12, 0.3):
            _same(record.conditional_pairs(floor), ev.conditional_pairs(floor), f"conditional pairs above {floor}")
        _same(record.outcome_probabilities(), ev.outcome_probabilities(), "outcomes")
        for got, expected in zip(verdicts(record), verdicts(ev), strict=True):
            assert got.relation_id == expected.relation_id
            for part in ("lhs", "rhs", "slack", "tol"):
                _same(getattr(got, part), getattr(expected, part), f"{expected.relation_id}.{part}")
            assert got.holds is expected.holds


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dims", [(2, 4), (3, 5), (8, 8), (4, 16)], ids=str)
@pytest.mark.parametrize("meter_kind", ["graded", "degenerate", "random"])
def test_explicit_models_sharing_a_meter_equal_evaluations(meter_kind, dims, n):
    """Wider meter clusters (a degenerate meter), wider objects, and two value maps that differ."""
    o, p = dims
    rng = np.random.default_rng([o, p, n])
    meter = herm_eig({"graded": np.diag(np.arange(p, dtype=float)),
                      "degenerate": np.diag(np.arange(p) // 2).astype(float),
                      "random": random_hermitian(p, rng)}[meter_kind])
    configs = []
    for i in range(n):
        model = IndirectModel(o, p, haar_unitary(o * p, rng), PureState(random_state_vector(p, rng)), meter)
        if i % 2:
            model = rescale_mvo(model, lambda v: 1.5 * v - 0.25)  # value_map_xt stays the identity
        configs.append((model, PureState(random_state_vector(o, rng)), herm_eig(random_hermitian(o, rng)),
                        herm_eig(random_hermitian(o, rng))))
    for s, config in zip(_table_statistics(configs), configs):
        _same_statistics(s, Evaluation(*config))


def test_configurations_of_several_shapes_come_back_in_order():
    cfgs = [cfg for family in SCENARIOS for cfg in _configurations(family, 3, seed=2)]
    order = np.random.default_rng(0).permutation(len(cfgs))
    configs = [_parts(cfgs[i]) for i in order]
    for s, config in zip(_table_statistics(configs), configs):
        _same_statistics(s, Evaluation(*config))


def test_overflowing_statistics_equal_evaluations_and_warn_of_nothing():
    """Values whose squares overflow: np.vecdot would warn where np.vdot does not (warnings are errors here)."""
    sx, sy, plus_x = NAMED_OBSERVABLES["sigma_x"], NAMED_OBSERVABLES["sigma_y"], NAMED_QUBIT_STATES["+x"]
    configs = [(rescale_mvo(build_sigma_phi(0.7), lambda v: 1e200 * v), plus_x, sx, sy),
               (build_sigma_phi(0.7), plus_x, herm_eig(1e200 * sx.matrix), sy)]
    for s, config in zip(_table_statistics(configs), configs):
        ev = Evaluation(*config)
        _same_statistics(s, ev)
        _same(_verdict_cells(s), _verdict_cells(ev), "verdicts")


# --- rows ------------------------------------------------------------------------------------

@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", list(SCENARIOS))
def test_stacked_rows_equal_single_rows_evaluations_and_checks(family, n):
    cfgs = _configurations(family, n, seed=3)
    grid = [float(i) for i in range(n)]
    rows = _configuration_rows(cfgs, section="stack", param_name="phi_degrees", param_values=grid)
    for row, cfg, value in zip(rows, cfgs, grid):
        single = configuration_row(cfg, section="stack", param_name="phi_degrees", param_value=value)
        assert list(row) == list(single)
        for key in row:
            _same(row[key], single[key], key)
        for key, expected in vars(Evaluation(*_parts(cfg)).report()).items():
            _same(row[key], expected, key)
        for rid in RelationId:
            v = check(rid, *_parts(cfg), tol=cfg.tolerance)
            for part in ("lhs", "rhs", "slack", "holds"):
                _same(row[f"{rid.value}_{part}"], getattr(v, part), f"{rid.value}_{part}")


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", [*SCENARIOS, "mixed"])
def test_table_verdict_cells_equal_per_row_verdicts(family, n):
    """Each verdict cell of a report row is verdicts(Evaluation(...))'s field: a float by float.hex, holds by identity.

    A mixed table is one stack per shape, its rows put back in order.
    """
    if family == "mixed":
        cfgs = [cfg for name in SCENARIOS for cfg in _configurations(name, n, seed=7)]
        cfgs = [cfgs[i] for i in np.random.default_rng(n).permutation(len(cfgs))]
    else:
        cfgs = _configurations(family, n, seed=5)
    for row, cfg in zip(_configuration_rows(cfgs), cfgs):
        for v in verdicts(Evaluation(*_parts(cfg)), tol=cfg.tolerance):
            for part in ("lhs", "rhs", "slack"):
                _same(row[f"{v.relation_id}_{part}"], getattr(v, part), f"{v.relation_id}_{part}")
            assert row[f"{v.relation_id}_holds"] is v.holds


def test_a_slack_of_minus_the_tolerance_holds_in_a_table_as_alone():
    """holds is slack >= -tol: at a tolerance of exactly -slack the relation holds, a float below it not."""
    cfg = build_configuration(Scenario(family="sigma_phi", model_params={"phi_degrees": 20.0}, state_spec="+z",
                                       x0_spec="sigma_x", y0_spec="sigma_y"))
    slack = check("HEISENBERG_E1", *_parts(cfg)).slack
    assert slack < 0
    for tol, holds in ((-slack, True), (math.nextafter(-slack, 0.0), False)):
        at = build_configuration(dataclasses.replace(cfg.scenario, tolerance=tol))
        rows = _configuration_rows([cfg, at, cfg])
        assert [row["HEISENBERG_E1_holds"] for row in rows] == [False, holds, False]
        assert verdicts(Evaluation(*_parts(at)), tol=tol)[0].holds is holds


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", [["scaled-values"], ["huge-x0"], ["scaled-values", "huge-x0"],
                                 ["huge-x0", "scaled-values"]], ids="+".join)
def test_a_table_with_a_non_finite_slack_raises_what_its_first_failing_row_raises(bad, where):
    """Configurations whose slacks overflow, among finite sigma_phi ones: first, in the middle or last."""
    finite = _configurations("sigma_phi", 5, seed=6)
    failing = [BuiltConfiguration(*NON_FINITE[name], finite[0].scenario) for name in bad]
    at = {"first": 0, "middle": 2, "last": 5}[where]
    with pytest.raises(ValueError) as expected:
        verdicts(Evaluation(*_parts(failing[0])))
    for call in (lambda: _configuration_rows(finite[:at] + failing + finite[at:]),
                 lambda: configuration_row(failing[0])):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(expected.value)


def test_the_reference_table_and_a_sweep_are_each_one_stack(monkeypatch, tmp_path, capsys):
    sizes = []
    stacked = murel.metrics._stacked_statistics
    monkeypatch.setattr(murel.metrics, "_stacked_statistics", lambda configs: sizes.append(len(configs))
                        or stacked(configs))
    spin_reference_rows()
    assert sizes == [18]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP_SCENARIO), encoding="utf-8")
    sizes.clear()
    assert main(["sweep", str(path), "--param", "phi_degrees", "--grid", ",".join(map(str, range(24)))]) == 0
    capsys.readouterr()
    assert sizes == [24]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_361_point_sweep_equals_its_one_point_sweeps(tmp_path, capsys, fmt):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP_SCENARIO), encoding="utf-8")
    grid = [str(v) for v in range(361)]

    def sweep(values: list[str]) -> list[str]:
        assert main(["sweep", str(path), "--param", "phi_degrees", "--grid", ",".join(values),
                     "--format", fmt]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        return out.splitlines()

    head = 2 if fmt == "csv" else 0  # the schema comment and the header
    whole = sweep(grid)
    assert len(whole) == head + 361
    for i, value in enumerate(grid):
        one = sweep([value])
        assert one[:head] == whole[:head]
        assert one[head:] == [whole[head + i]]


# --- rejections ------------------------------------------------------------------------------

def _misfits() -> dict:
    good = build_configuration(_sigma_phi(np.random.default_rng(4), "identity"))
    qutrit = PureState(np.array([1.0, 0.0, 0.0]))
    return {
        "state-dim": (good.model, qutrit, good.x0, good.y0),
        "x0-dim": (good.model, good.state, herm_eig(np.eye(3)), good.y0),
        "model-type": (None, good.state, good.x0, good.y0),
        "state-type": (good.model, "garbage", good.x0, good.y0),
        "x0-type": (good.model, good.state, np.eye(2), good.y0),
        "y0-type": (good.model, good.state, good.x0, [[1, 0], [0, 1]]),
    }, good


@pytest.mark.parametrize("case", list(_misfits()[0]))
def test_a_misfit_configuration_raises_what_an_evaluation_raises(case):
    misfits, good = _misfits()
    config = misfits[case]
    with pytest.raises((ValueError, TypeError)) as expected:
        Evaluation(*config)
    bad = BuiltConfiguration(*config, good.scenario)
    for call in (lambda: configuration_row(bad), lambda: _configuration_rows([good, bad, good])):
        with pytest.raises(type(expected.value)) as got:
            call()
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("family,probe_state", [("sigma_phi", "garbage"), ("random_unitary", [1, 2, 3]),
                                                ("sigma_phi", np.array([1.0, 0.0]))])
def test_a_probe_state_outside_the_shift_family_is_named(family, probe_state):
    with pytest.raises(ScenarioError) as info:
        search_min_slack("HEISENBERG_E1", SearchSpace(family, probe_state=probe_state), 5, 0)
    assert info.value.path == "SearchSpace.probe_state"
    assert str(info.value) == (f"SearchSpace.probe_state: {family} takes no probe_state: "
                               "only the shift family pins its probe")
