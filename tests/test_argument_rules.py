"""Malformed arguments to the Python API end in ValueError or TypeError.

One rule reads every real argument (a finite real, not a bool): a
tolerance, which must also be greater than 0, a scenario's angle and
build_sigma_phi's, each with the same message.  One rule reads every
integer argument without truncating it: the search's budget, seed and
dimensions, and the model constructors' dimensions.  None of these ends
in a verdict, a LinAlgError, an OverflowError or a shortened run.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import murel.relations
import murel.search
from murel.linalg import PureState, herm_eig
from murel.metrics import Evaluation
from murel.model import NAMED_OBSERVABLES, NAMED_QUBIT_STATES, IndirectModel, build_shift_model, build_sigma_phi
from murel.relations import check, check_all, verdicts
from murel.scenario import Scenario, scenario_to_text
from murel.search import Family, SearchSpace, random_model, search_min_slack

BAD_TOLERANCES = [math.nan, math.inf, -math.inf, -1, -1.0, 0, 0.0, True, False, "1e-9", None,
                  10**400, -(10**400)]
SX, SY = NAMED_OBSERVABLES["sigma_x"], NAMED_OBSERVABLES["sigma_y"]
PLUS_Z = NAMED_QUBIT_STATES["+z"]


@pytest.fixture
def model():
    return build_sigma_phi(0.3)


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
class TestToleranceRule:
    def test_check(self, model, tol):
        with pytest.raises(ValueError):
            check("OZAWA_E2", model, PLUS_Z, SX, SY, tol=tol)

    def test_check_all(self, model, tol):
        with pytest.raises(ValueError):
            check_all(model, PLUS_Z, SX, SY, tol=tol)

    def test_verdicts(self, model, tol):
        with pytest.raises(ValueError):
            verdicts(Evaluation(model, PLUS_Z, SX, SY), tol=tol)


def test_a_numpy_tolerance_reads_as_its_float(model):
    assert check("OZAWA_E2", model, PLUS_Z, SX, SY, tol=np.float32(0.5)).tol == 0.5
    assert check_all(model, PLUS_Z, SX, SY, tol=np.int64(1)) == check_all(model, PLUS_Z, SX, SY, tol=1.0)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, 10**400, "nan", None], ids=repr)
def test_build_sigma_phi_rejects_a_non_finite_angle(phi):
    with pytest.raises((ValueError, TypeError)):
        build_sigma_phi(phi)


@pytest.mark.parametrize("budget, seed", [
    (2.7, 1), (True, 1), (np.float64(3.0), 1), ("3", 1), (None, 1),
    (5, 1.9), (5, True), (5, np.float64(2.0)), (5, "1"),
], ids=repr)
def test_search_takes_no_integer_argument_in_truncated_form(budget, seed):
    with pytest.raises((ValueError, TypeError)):
        search_min_slack("OZAWA_E2", SearchSpace(family=Family.SIGMA_PHI), budget, seed)


@pytest.mark.parametrize("fields", [
    {"family": Family.RANDOM_UNITARY, "object_dim": 2.5},
    {"family": Family.RANDOM_UNITARY, "object_dim": True},
    {"family": Family.RANDOM_UNITARY, "probe_dim": 2.0},
    {"family": Family.SHIFT, "probe_dim": 4.0},
], ids=repr)
def test_search_space_dimensions_are_integers(fields):
    with pytest.raises((ValueError, TypeError), match=r"^SearchSpace\.(object|probe)_dim: "):
        search_min_slack("OZAWA_E2", SearchSpace(**fields), 3, 0)


def test_numpy_integers_run_as_the_python_int():
    def run(budget, seed, object_dim):
        space = SearchSpace(family=Family.RANDOM_UNITARY, object_dim=object_dim)
        return search_min_slack("OZAWA_E2", space, budget, seed)

    plain, numpy_ints = run(12, 4, 3), run(np.int64(12), np.int64(4), np.int64(3))
    assert type(numpy_ints.budget) is int and type(numpy_ints.seed) is int
    assert numpy_ints.best_slack.hex() == plain.best_slack.hex()
    assert numpy_ints.witness_params == plain.witness_params
    assert scenario_to_text(numpy_ints.witness_doc) == scenario_to_text(plain.witness_doc)


def test_a_scenario_reads_a_numpy_integer_seed_as_a_python_int():
    sc = Scenario(family="sigma_phi", model_params={"phi_degrees": 40.0}, state_spec="+x",
                  x0_spec="sigma_x", y0_spec="sigma_y", seed=np.int64(3))
    assert type(sc.seed) is int and sc.seed == 3


@pytest.mark.parametrize("budget", [0, 1, 40])
def test_one_search_reads_the_tolerance_rule_once(monkeypatch, budget):
    calls = []
    rule = murel.relations._tolerance

    def spy(tol):
        calls.append(tol)
        return rule(tol)

    monkeypatch.setattr(murel.relations, "_tolerance", spy)
    monkeypatch.setattr(murel.search, "_tolerance", spy)
    search_min_slack("OZAWA_E2", SearchSpace(family=Family.SIGMA_PHI), budget, 0, tol=1e-6)
    assert calls == [1e-6]


MALFORMED_REALS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "True": True, "'1.5'": "1.5",
                   "None": None, "10**400": 10**400, "-10**400": -(10**400)}


def sigma_phi_scenario(**fields) -> Scenario:
    return Scenario(**{"family": "sigma_phi", "model_params": {"phi_degrees": 40.0}, "state_spec": "+x",
                       "x0_spec": "sigma_x", "y0_spec": "sigma_y", **fields})


def rejection(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("value", MALFORMED_REALS.values(), ids=MALFORMED_REALS)
def test_every_reader_of_a_real_argument_gives_the_one_rule_s_message(model, value):
    message = rejection(lambda: build_sigma_phi(value))
    assert rejection(lambda: sigma_phi_scenario(model_params={"phi_degrees": value})) == (
        f"scenario.model.phi_degrees: {message}")
    assert rejection(lambda: sigma_phi_scenario(tolerance=value)) == f"scenario.tolerance: {message}"
    assert rejection(lambda: check("OZAWA_E2", model, PLUS_Z, SX, SY, tol=value)) == message


@pytest.mark.parametrize("phi, message", [
    ("1.5", "expected a number, got '1.5'"),
    (True, "expected a number, got True"),
], ids=repr)
def test_build_sigma_phi_reads_no_string_or_bool_as_an_angle(phi, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_sigma_phi(phi)


def test_a_scenario_reads_a_numpy_real_angle_as_its_float():
    sc = sigma_phi_scenario(model_params={"phi_degrees": np.float32(40)})
    phi = sc.document["model"]["phi_degrees"]
    assert type(phi) is float and phi == 40.0
    assert scenario_to_text(sc.document) == scenario_to_text(sigma_phi_scenario().document)


def two_level_shift():
    return herm_eig(np.diag([0.0, 1.0]))


@pytest.mark.parametrize("construct", [
    lambda: IndirectModel(object_dim=2.0, probe_dim=2, unitary=np.eye(4), probe_state=PLUS_Z,
                          meter=NAMED_OBSERVABLES["sigma_z"]),
    lambda: IndirectModel(object_dim=True, probe_dim=4, unitary=np.eye(4), probe_state=PureState(np.ones(4) / 2),
                          meter=herm_eig(np.diag([0.0, 1.0, 2.0, 3.0]))),
    lambda: build_shift_model(two_level_shift(), True, PLUS_Z),
    lambda: random_model(2.0, 2, np.random.default_rng(0)),
], ids=["IndirectModel-float", "IndirectModel-bool", "build_shift_model-bool", "random_model-float"])
def test_model_constructors_read_dimensions_with_the_integer_rule(construct):
    with pytest.raises((ValueError, TypeError), match="^expected an integer, got "):
        construct()


def test_model_constructors_store_numpy_dimensions_as_python_ints():
    built = [
        IndirectModel(np.int64(2), np.int64(2), np.eye(4), PLUS_Z, NAMED_OBSERVABLES["sigma_z"]),
        build_shift_model(two_level_shift(), np.int64(4), PureState(np.array([0.0, 1.0, 0.0, 0.0]))),
        random_model(np.int64(2), np.int64(2), np.random.default_rng(0)),
    ]
    assert all(type(m.object_dim) is int and type(m.probe_dim) is int and type(m.dim) is int for m in built)
