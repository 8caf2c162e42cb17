"""Fuzz the scalar arguments of the public Python API: a malformed one is always rejected.

Each case names a public callable and one of its scalar arguments, and
passes a malformed value for it with every other argument valid.  The
value is drawn from what no rule accepts for that kind of argument: nan,
infinities, bools and numpy bools, strings, bytes, None, lists and arrays,
complex numbers, integers beyond the float range, and numpy scalars; a
non-integral or integral float for an integer; zero or a negative number
for a tolerance, a budget, a seed or a dimension, and a negative spawn
index.  The call must raise ValueError (ScenarioError is one) or
TypeError: it never returns, and it never raises numpy's LinAlgError
(also a ValueError), an OverflowError or another ArithmeticError.  Budgets are 2 at most, so no example runs long.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from murel.linalg import HermitianObservable, MixedState, PureState, herm_eig
from murel.metrics import Evaluation, conditional_pairs, conditional_resolution, stddev
from murel.model import (
    NAMED_OBSERVABLES,
    NAMED_QUBIT_STATES,
    IndirectModel,
    build_shift_model,
    build_sigma_phi,
    conditional_post_state,
)
from murel.relations import check, check_all, verdicts
from murel.scenario import Scenario
from murel.search import (
    Family,
    SearchSpace,
    haar_unitary,
    random_model,
    random_pure_state,
    search_min_slack,
    state_from_angles,
    substream,
)

NOT_A_NUMBER = st.one_of(
    st.sampled_from([True, False, np.True_, np.False_, None, "1.5", "nan", "", b"1", [1.0], (2,),
                     np.array([1.0]), 1 + 2j, np.complex128(1.0), {}]),
    st.text(max_size=4),
    st.binary(max_size=4),
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf),
                              np.float16(-math.inf), np.longdouble("1e400")])
BEYOND_FLOAT = st.sampled_from([10**400, -(10**400), np.longdouble("-1e400")])
# An angle is any finite real, so these are all that is malformed for one.
MALFORMED_REAL = st.one_of(NOT_A_NUMBER, NON_FINITE, BEYOND_FLOAT)
MALFORMED_TOLERANCE = st.one_of(
    MALFORMED_REAL,
    st.floats(max_value=0.0, allow_nan=False),
    st.integers(max_value=0),
    st.sampled_from([np.float32(0.0), np.float64(-1e-9), np.int64(0), np.int8(-3), Fraction(-1, 3)]),
)
NOT_AN_INTEGER = st.one_of(
    NOT_A_NUMBER,
    NON_FINITE,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([np.float64(2.0), np.float32(2.5), np.longdouble(4), Fraction(5, 2), Fraction(4, 1)]),
)
NEGATIVE_INTEGER = st.one_of(st.integers(max_value=-1), st.sampled_from([-(10**400), np.int64(-1), np.int8(-128)]))
# A dimension the callable cannot take: not an integer, below its least valid value, or far beyond any.
MALFORMED_DIM = st.one_of(NOT_AN_INTEGER, st.integers(max_value=0), st.sampled_from([np.int64(0), 10**400]))
MALFORMED_RANDOM_DIM = st.one_of(MALFORMED_DIM, st.sampled_from([1, np.uint8(1), 17, 10**400]))


def given_dim(dims: st.SearchStrategy) -> st.SearchStrategy:
    """dims without None, which a SearchSpace's probe_dim reads as the family's default."""
    return dims.filter(lambda v: v is not None)


SX, SY, SZ = (NAMED_OBSERVABLES[name] for name in ("sigma_x", "sigma_y", "sigma_z"))
PLUS_Z = NAMED_QUBIT_STATES["+z"]
MODEL = build_sigma_phi(0.3)
GRADED = herm_eig(np.diag([0.0, 1.0, 2.0, 3.0]))
POINTER = PureState(np.array([0.0, 1.0, 0.0, 0.0]))


def sigma_phi_scenario(phi_degrees=40.0, **fields) -> Scenario:
    return Scenario(family="sigma_phi", model_params={"phi_degrees": phi_degrees}, state_spec="+x",
                    x0_spec="sigma_x", y0_spec="sigma_y", **fields)


def search(budget=2, seed=0, tol=1e-9, **space) -> None:
    search_min_slack("OZAWA_E2", SearchSpace(**{"family": Family.RANDOM_UNITARY, **space}), budget, seed, tol=tol)


# case -> (values, the call that takes the value)
CASES = {
    "build_sigma_phi": (MALFORMED_REAL, build_sigma_phi),
    "check.tol": (MALFORMED_TOLERANCE, lambda v: check("OZAWA_E2", MODEL, PLUS_Z, SX, SY, tol=v)),
    "check_all.tol": (MALFORMED_TOLERANCE, lambda v: check_all(MODEL, PLUS_Z, SX, SY, tol=v)),
    "verdicts.tol": (MALFORMED_TOLERANCE, lambda v: verdicts(Evaluation(MODEL, PLUS_Z, SX, SY), tol=v)),
    "conditional_pairs.floor": (MALFORMED_REAL, lambda v: conditional_pairs(MODEL, PLUS_Z, SX, floor=v)),
    "Evaluation.conditional_pairs.floor": (MALFORMED_REAL,
                                           lambda v: Evaluation(MODEL, PLUS_Z, SX, SY).conditional_pairs(v)),
    "check.readout_floor": (MALFORMED_REAL, lambda v: check("SQL_COND_E3", MODEL, PLUS_Z, SX, SY, readout_floor=v)),
    "conditional_resolution.readout": (MALFORMED_REAL, lambda v: conditional_resolution(MODEL, PLUS_Z, SX, v)),
    "conditional_post_state.readout": (MALFORMED_REAL, lambda v: conditional_post_state(MODEL, PLUS_Z, v)),
    "search_min_slack.budget": (st.one_of(NOT_AN_INTEGER, NEGATIVE_INTEGER), lambda v: search(budget=v)),
    "search_min_slack.seed": (st.one_of(NOT_AN_INTEGER, NEGATIVE_INTEGER), lambda v: search(seed=v)),
    "search_min_slack.tol": (MALFORMED_TOLERANCE, lambda v: search(tol=v)),
    "SearchSpace.object_dim": (MALFORMED_RANDOM_DIM, lambda v: search(object_dim=v)),
    "SearchSpace.probe_dim": (given_dim(MALFORMED_RANDOM_DIM), lambda v: search(probe_dim=v)),
    "SearchSpace.probe_dim.shift": (given_dim(MALFORMED_DIM), lambda v: search(family=Family.SHIFT, probe_dim=v)),
    "IndirectModel.object_dim": (MALFORMED_DIM, lambda v: IndirectModel(v, 2, np.eye(4), PLUS_Z, SZ)),
    "IndirectModel.probe_dim": (MALFORMED_DIM, lambda v: IndirectModel(1, v, np.eye(4), POINTER, GRADED)),
    "build_shift_model.probe_dim": (MALFORMED_DIM, lambda v: build_shift_model(SZ, v, POINTER)),
    "random_model.object_dim": (MALFORMED_RANDOM_DIM, lambda v: random_model(v, 2, np.random.default_rng(0))),
    "random_model.probe_dim": (MALFORMED_RANDOM_DIM, lambda v: random_model(2, v, np.random.default_rng(0))),
    "Scenario.phi_degrees": (MALFORMED_REAL, sigma_phi_scenario),
    "Scenario.tolerance": (MALFORMED_TOLERANCE, lambda v: sigma_phi_scenario(tolerance=v)),
    "Scenario.seed": (NOT_AN_INTEGER, lambda v: sigma_phi_scenario(seed=v)),
    "substream.seed": (st.one_of(NOT_AN_INTEGER, NEGATIVE_INTEGER), lambda v: substream(v, 0)),
    "substream.index": (st.one_of(NOT_AN_INTEGER, NEGATIVE_INTEGER), lambda v: substream(0, v)),
    "random_pure_state.dim": (MALFORMED_DIM, lambda v: random_pure_state(v, np.random.default_rng(0))),
    "haar_unitary.dim": (MALFORMED_DIM, lambda v: haar_unitary(v, np.random.default_rng(0))),
    "state_from_angles.dim": (MALFORMED_DIM, lambda v: state_from_angles(v, [])),
    "state_from_angles.angles": (MALFORMED_REAL, lambda v: state_from_angles(2, [v, 0.0])),
}


@pytest.mark.parametrize("values, call", CASES.values(), ids=CASES)
def test_a_malformed_scalar_argument_is_rejected(values, call):
    @seed(20261019)
    @settings(max_examples=40, deadline=None, database=None)
    @given(values)
    def rejected(value):
        with pytest.raises((ValueError, TypeError)) as info:
            call(value)
        assert not isinstance(info.value, (np.linalg.LinAlgError, ArithmeticError)), repr(info.value)

    rejected()


# --- array arguments -------------------------------------------------------------------------

MIXED = MixedState(np.eye(2) / 2)
# array argument -> the call that takes a value for it, every other argument valid
ARRAY_CALLS = {
    "herm_eig": herm_eig,
    "HermitianObservable.matrix": lambda v: HermitianObservable(v, SZ.eigenvalues, SZ.eigenvectors),
    "HermitianObservable.eigenvalues": lambda v: HermitianObservable(SZ.matrix, v, SZ.eigenvectors),
    "HermitianObservable.eigenvectors": lambda v: HermitianObservable(SZ.matrix, SZ.eigenvalues, v),
    "PureState": PureState,
    "MixedState": MixedState,
    "IndirectModel.unitary": lambda v: IndirectModel(2, 2, v, PLUS_Z, SZ),
    "Scenario.state_spec": lambda v: Scenario(family="sigma_phi", model_params={"phi_degrees": 40.0}, state_spec=v,
                                              x0_spec="sigma_x", y0_spec="sigma_y"),
    "SearchSpace.x0_spec": lambda v: search(x0_spec=v),
    "SearchSpace.probe_state": lambda v: search(family=Family.SHIFT, probe_dim=4, probe_state=v),
    "state_from_angles.angles": lambda v: state_from_angles(2, v),
    "stddev.pure": lambda v: stddev(NAMED_QUBIT_STATES["+x"], v),
    "stddev.mixed": lambda v: stddev(MIXED, v),
}
# Malformed matrices and vectors.  Left out, as accepted by design: None for a search observable or
# probe (the default), [[0, 1e-300], [0, 0]] (Hermitian within HERM_ACCEPT_ATOL) and a non-Hermitian
# stddev operator.
MALFORMED_ARRAYS = {
    "empty": [],
    "0x0": np.zeros((0, 0)),
    "2x3": np.ones((2, 3)),
    "nan-entry": [[math.nan, 0.0], [0.0, 1.0]],
    "nan-vector": [math.nan, 1.0],
    "non-numeric": [["a", "b"], ["c", "d"]],
    "unknown-name": "no_such_name",
    "scalar": 3,
    "huge": np.diag([1e308, -1e308]),
}
# stddev spreads a finite operator whose spread overflows to inf (a warning in the mixed-state trace)
OVERFLOWING_SPREAD = pytest.mark.xfail(strict=True, reason="stddev does not bound a spread that overflows")


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{name}-{kind}",
                 marks=OVERFLOWING_SPREAD if name.startswith("stddev") and kind == "huge" else ())
    for name, call in ARRAY_CALLS.items() for kind, value in MALFORMED_ARRAYS.items()
])
def test_a_malformed_array_argument_is_rejected(call, value):
    with pytest.raises((ValueError, TypeError)) as info:
        call(value)
    assert not isinstance(info.value, np.linalg.LinAlgError), repr(info.value)
