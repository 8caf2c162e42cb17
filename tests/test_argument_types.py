"""An argument of the wrong type to a configuration call is a TypeError that names it.

Each call reads a model, an object state and an x0/y0 observable pair, or
some of them.  Passing anything else in place of one (None, a list, a bare
array, or another of the package's types) raises TypeError naming that
argument, before any arithmetic; it never ends in an AttributeError.
"""
from __future__ import annotations

import numpy as np
import pytest

from murel.linalg import MixedState
from murel.metrics import Evaluation
from murel.model import (
    NAMED_OBSERVABLES,
    NAMED_QUBIT_STATES,
    build_sigma_phi,
    composite_input,
    conditional_post_state,
    evolve,
    readout_probabilities,
)
from murel.relations import check, check_all

MODEL = build_sigma_phi(0.3)
VALID = {"model": MODEL, "state": NAMED_QUBIT_STATES["+z"],
         "x0": NAMED_OBSERVABLES["sigma_x"], "y0": NAMED_OBSERVABLES["sigma_y"]}
TYPES = {"model": "IndirectModel", "state": "PureState", "x0": "HermitianObservable", "y0": "HermitianObservable"}

# call -> (the arguments it takes, in order; the call)
CALLS = {
    "check": (("model", "state", "x0", "y0"), lambda *args: check("OZAWA_E2", *args)),
    "check_all": (("model", "state", "x0", "y0"), check_all),
    "Evaluation": (("model", "state", "x0", "y0"), Evaluation),
    "evolve": (("model", "x0", "y0"), evolve),
    "composite_input": (("model", "state"), composite_input),
    "readout_probabilities": (("model", "state"), readout_probabilities),
    "conditional_post_state": (("model", "state"), lambda *args: conditional_post_state(*args, 1.0)),
}

# argument -> values of another type
WRONG = {
    "model": [None, "sigma_phi", MODEL.unitary, VALID["x0"]],
    "state": [None, [1, 0], np.array([1.0, 0.0]), MixedState(np.eye(2) / 2), VALID["x0"]],
    "x0": [None, VALID["x0"].matrix, VALID["state"], MODEL],
    "y0": [None, [[0, 1], [1, 0]], MixedState(np.eye(2) / 2)],
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
def test_the_valid_arguments_are_accepted(call):
    names, fn = call
    fn(*(VALID[name] for name in names))


@pytest.mark.parametrize("call_id, name, value", [
    pytest.param(call_id, name, value, id=f"{call_id}-{name}-{type(value).__name__}")
    for call_id, (names, _) in CALLS.items()
    for name in names
    for value in WRONG[name]
])
def test_a_wrong_argument_type_is_a_type_error_naming_it(call_id, name, value):
    names, fn = CALLS[call_id]
    with pytest.raises(TypeError, match=rf"^{name}: expected {TYPES[name]}, got ") as info:
        fn(*(value if n == name else VALID[n] for n in names))
    assert "\n" not in str(info.value)

