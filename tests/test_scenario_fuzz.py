"""Fuzz the scenario entry: a mutated scenario file ends in a report or a ScenarioError.

Each example takes a valid sigma_phi, shift or explicit document, replaces
or deletes one to three of its leaves with JSON values, writes it as JSON
text and runs parse_scenario (json.loads, then scenario_from_dict) ->
build_configuration -> configuration_row.  Any exception other than
ScenarioError fails the test.
"""
from __future__ import annotations

import copy
import json

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from murel.reporting import configuration_row
from murel.scenario import ScenarioError, build_configuration, parse_scenario, scenario_from_dict

_OBSERVABLES = {"x0": "sigma_x", "y0": "sigma_y"}
_CNOT = [
    [[1, 0], [0, 0], [0, 0], [0, 0]],
    [[0, 0], [1, 0], [0, 0], [0, 0]],
    [[0, 0], [0, 0], [0, 0], [1, 0]],
    [[0, 0], [0, 0], [1, 0], [0, 0]],
]
DOCUMENTS = [
    {
        "schema_version": 1,
        "model": {"family": "sigma_phi", "phi_degrees": 40.0},
        "state": "+x",
        "observables": _OBSERVABLES,
        "value_map": "identity",
    },
    {
        "schema_version": 1,
        "id": "shift-fuzz",
        "model": {"family": "shift", "probe_dim": 4, "probe_state": [[0, 0], [1, 0], [0, 0], [0, 0]]},
        "state": [[0.6, 0], [0, 0.8]],
        "observables": {"x0": "sigma_z", "y0": "sigma_y"},
        "value_map": "scale:2",
        "tolerance": 1e-9,
        "seed": 3,
    },
    {
        "schema_version": 1,
        "model": {
            "family": "explicit",
            "object_dim": 2,
            "unitary": _CNOT,
            "probe_state": [[1, 0], [0, 0]],
            "meter": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
        },
        "state": "+y",
        "observables": _OBSERVABLES,
        "value_map": "center_on_meter_mean",
    },
]

DELETE = object()  # mutation that removes the leaf from its dict or list

# json.dumps writes non-finite floats as NaN and Infinity, which json.loads
# reads back.
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.sampled_from([2**63, 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([
        "sigma_phi", "shift", "explicit", "+x", "-z", "sigma_z", "identity",
        "scale:1e308", "scale:-1e200", "shift:1e308", "scale:0", "scale:nan",
        "center_on_meter_mean", "center_on_meter_mean:1", "shift:",
    ]),
    st.text(max_size=4),
    st.lists(st.floats(-2.0, 2.0), max_size=3),
    st.just({}),
    st.just(DELETE),
)


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def _set(doc, path, value):
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_leaf_paths(doc))
        if not paths:
            break
        _set(doc, draw(st.sampled_from(paths)), draw(VALUES))
    return doc


def _with(base: dict, path: tuple, value) -> str:
    doc = copy.deepcopy(base)
    _set(doc, path, value)
    return json.dumps(doc)


SIGMA_PHI, SHIFT, _ = DOCUMENTS
PHI_LITERAL = _with(SIGMA_PHI, ("model", "phi_degrees"), "PHI")


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(mutated_documents().map(json.dumps))
# A value map that sends a meter eigenvalue past the float range:
# (3 - 1) * 1e308.
@example(_with(SHIFT, ("value_map",), "scale:1e308"))
# A JSON integer beyond the float range, an array nested 100k deep, and an
# integer literal past Python's 4300-digit limit.
@example(PHI_LITERAL.replace('"PHI"', "1" + "0" * 400))
@example("[" * 100_000 + "]" * 100_000)
@example(PHI_LITERAL.replace('"PHI"', "1" + "0" * 5000))
# A state name from a file that is not UTF-8, its undecodable byte kept as
# a surrogate escape.
@example(_with(SIGMA_PHI, ("state",), "\udce9"))
def test_mutated_scenario_raises_only_scenario_error(text):
    try:
        configuration_row(build_configuration(parse_scenario(text)), section="fuzz")
    except ScenarioError:
        pass


def test_unmutated_documents_build():
    for doc in DOCUMENTS:
        configuration_row(build_configuration(scenario_from_dict(doc)), section="fuzz")
