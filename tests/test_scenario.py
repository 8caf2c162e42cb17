from __future__ import annotations

import copy
import dataclasses
import enum
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from murel import scenario as scenario_module
from murel.linalg import max_abs
from murel.model import build_sigma_phi, outcome_probabilities, pauli_observable
from murel.relations import RelationId, check
from murel.scenario import (
    Scenario,
    ScenarioError,
    apply_value_map,
    build_configuration,
    make_scenario_doc,
    matrix_pairs,
    parse_scenario,
    scenario_from_dict,
    scenario_to_text,
    vector_pairs,
)

SX = pauli_observable("sigma_x")
SY = pauli_observable("sigma_y")


def sigma_phi_doc(phi=40.0, state="+x", **overrides):
    doc = make_scenario_doc(
        family="sigma_phi",
        model_params={"phi_degrees": phi},
        state_spec=state,
        x0_spec="sigma_x",
        y0_spec="sigma_y",
    )
    doc.update(overrides)
    return doc


class TestRoundTrip:
    def test_text_round_trip_preserves_document(self):
        doc = sigma_phi_doc()
        sc = parse_scenario(scenario_to_text(doc))
        assert sc.document == doc
        assert scenario_to_text(sc.document) == scenario_to_text(doc)

    def test_explicit_vectors_round_trip_exactly(self):
        amps = np.array([0.123456789012345678 + 0.2j, 0.3 - 0.1j, 0.5, 0.7], dtype=complex)
        amps = amps / np.linalg.norm(amps)
        doc = make_scenario_doc(
            family="shift",
            model_params={"probe_dim": 4, "probe_state": np.array([1.0, 0.0, 0.0, 0.0])},
            state_spec=amps[:2] / np.linalg.norm(amps[:2]),
            x0_spec=np.diag([0.0, 1.0]),
            y0_spec="sigma_y",
        )
        sc = parse_scenario(scenario_to_text(doc))
        rebuilt = np.asarray(sc.state_spec)
        assert max_abs(rebuilt - np.asarray(doc["state"])[:, 0] - 1j * np.asarray(doc["state"])[:, 1]) == 0.0

    def test_built_configuration_matches_direct_construction(self):
        sc = scenario_from_dict(sigma_phi_doc(phi=40.0, state="+x"))
        cfg = build_configuration(sc)
        direct = build_sigma_phi(math.radians(40.0))
        assert max_abs(cfg.model.unitary - direct.unitary) == 0.0
        v_doc = check(RelationId.OZAWA_E2, cfg.model, cfg.state, cfg.x0, cfg.y0)
        v_direct = check(
            RelationId.OZAWA_E2, direct,
            cfg.state, SX, SY,
        )
        assert v_doc.slack == v_direct.slack

    def test_defaults_applied(self):
        doc = sigma_phi_doc()
        del doc["value_map"], doc["tolerance"], doc["seed"]
        sc = scenario_from_dict(doc)
        assert sc.value_map_spec == "identity"
        assert sc.tolerance == 1e-9
        assert sc.seed == 0
        assert sc.scenario_id is None

    def test_document_is_written_from_the_fields_it_describes(self):
        sc = scenario_from_dict(sigma_phi_doc(phi=40.0))
        moved = dataclasses.replace(sc, model_params={"phi_degrees": 90.0})
        assert moved.document == sigma_phi_doc(phi=90.0)
        assert sc.document == sigma_phi_doc(phi=40.0)


SIGMA_PHI_FIELDS = dict(family="sigma_phi", model_params={"phi_degrees": 40.0},
                        state_spec="+x", x0_spec="sigma_x", y0_spec="sigma_y")


class TestScenarioConstructor:
    @pytest.mark.parametrize("overrides, path", [
        ({"model_params": {"phi_degrees": float("nan")}}, "scenario.model.phi_degrees"),
        ({"tolerance": -1.0}, "scenario.tolerance"),
        ({"tolerance": True}, "scenario.tolerance"),
        ({"seed": 1.5}, "scenario.seed"),
        ({"state_spec": np.array([1.0, 1.0])}, "scenario.state"),
        ({"state_spec": np.array(["a", "b"])}, "scenario.state"),
        ({"x0_spec": "sigma_q"}, "scenario.observables.x0"),
        ({"family": "nope"}, "scenario.model.family"),
        ({"model_params": {"phi_degrees": 40.0, "extra": 1}}, "scenario.model"),
        ({"value_map_spec": "scale:x"}, "scenario.value_map"),
        ({"scenario_id": 3}, "scenario.id"),
    ], ids=["phi-nan", "tolerance-negative", "tolerance-bool", "seed-float", "state-unnormalized",
            "state-strings", "x0-unknown-name", "family-unknown", "model-extra-key", "value-map-bad-argument", "id-int"])
    def test_invalid_field_raises_at_its_path(self, overrides, path):
        with pytest.raises(ScenarioError) as err:
            Scenario(**{**SIGMA_PHI_FIELDS, **overrides})
        assert err.value.path == path

    def test_replace_checks_the_new_fields(self):
        sc = Scenario(**SIGMA_PHI_FIELDS)
        with pytest.raises(ScenarioError, match=r"scenario\.model\.phi_degrees: non-finite number inf"):
            dataclasses.replace(sc, model_params={"phi_degrees": float("inf")})

    def test_unchecked_document_still_rejects_unknown_fields(self):
        with pytest.raises(TypeError, match="tolerence"):
            make_scenario_doc(**SIGMA_PHI_FIELDS, tolerence=1e-3)

    def test_arrays_are_read_as_their_document_pairs(self):
        fields = {**SIGMA_PHI_FIELDS, "state_spec": np.array([0.6, 0.8j]), "x0_spec": np.diag([0.0, 1.0])}
        sc = Scenario(**fields)
        assert sc.document == make_scenario_doc(**fields)
        assert scenario_from_dict(sc.document).document == sc.document


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match=r"scenario: unknown keys \['frobnicate'\]"):
            scenario_from_dict(sigma_phi_doc(frobnicate=1))

    def test_unknown_model_key(self):
        doc = sigma_phi_doc()
        doc["model"]["extra"] = 1
        with pytest.raises(ScenarioError, match=r"scenario\.model: unknown keys"):
            scenario_from_dict(doc)

    def test_missing_required_keys(self):
        doc = sigma_phi_doc()
        del doc["observables"]
        with pytest.raises(ScenarioError, match="missing required keys"):
            scenario_from_dict(doc)

    def test_unknown_observable_key(self):
        doc = sigma_phi_doc()
        doc["observables"]["z0"] = "sigma_z"
        with pytest.raises(ScenarioError, match=r"scenario\.observables: unknown keys"):
            scenario_from_dict(doc)

    def test_unknown_family(self):
        doc = sigma_phi_doc()
        doc["model"] = {"family": "teleport"}
        with pytest.raises(ScenarioError, match="unknown family 'teleport'"):
            scenario_from_dict(doc)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ScenarioError, match=r"syntax error at line 2 column"):
            parse_scenario('{\n  "schema_version": }')

    def test_unsupported_schema_version(self):
        doc = sigma_phi_doc()
        doc["schema_version"] = 2
        with pytest.raises(ScenarioError, match="unsupported schema_version 2"):
            scenario_from_dict(doc)

    def test_booleans_are_not_numbers(self):
        doc = sigma_phi_doc()
        doc["tolerance"] = True
        with pytest.raises(ScenarioError, match="scenario.tolerance"):
            scenario_from_dict(doc)

    def test_non_finite_number_rejected(self):
        doc = sigma_phi_doc()
        doc["model"]["phi_degrees"] = float("inf")
        with pytest.raises(ScenarioError, match="non-finite"):
            scenario_from_dict(doc)

    def test_bad_complex_pair_arity(self):
        doc = sigma_phi_doc()
        doc["state"] = [[1.0, 0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ScenarioError, match=r"scenario\.state\[0\]"):
            scenario_from_dict(doc)

    def test_ragged_matrix_rejected(self):
        doc = sigma_phi_doc()
        doc["observables"]["x0"] = [[[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(ScenarioError, match="square"):
            scenario_from_dict(doc)

    def test_unknown_state_name(self):
        doc = sigma_phi_doc(state="+q")
        with pytest.raises(ScenarioError, match="unknown state name '\\+q'"):
            scenario_from_dict(doc)

    def test_unknown_observable_name(self):
        doc = sigma_phi_doc()
        doc["observables"]["x0"] = "sigma_q"
        with pytest.raises(ScenarioError, match="unknown observable name"):
            scenario_from_dict(doc)


class TestValueMapSpecs:
    @pytest.mark.parametrize("spec", ["scale", "scale:", "scale:abc", "shift:1:2",
                                       "center_on_meter_mean:5", "frobnicate"])
    def test_malformed_specs_rejected(self, spec):
        doc = sigma_phi_doc()
        doc["value_map"] = spec
        with pytest.raises(ScenarioError, match="value map"):
            scenario_from_dict(doc)

    def test_scale_changes_outcome_values(self):
        doc = sigma_phi_doc(state="+z")
        doc["value_map"] = "scale:2"
        cfg = build_configuration(scenario_from_dict(doc))
        values = [v for v, _ in outcome_probabilities(cfg.model, cfg.state)]
        assert values == pytest.approx([-2.0, 2.0])

    def test_shift_adds_constant(self):
        doc = sigma_phi_doc(state="+z")
        doc["value_map"] = "shift:1"
        cfg = build_configuration(scenario_from_dict(doc))
        values = [v for v, _ in outcome_probabilities(cfg.model, cfg.state)]
        assert values == pytest.approx([0.0, 2.0])

    def test_center_on_meter_mean_subtracts_probe_average(self):
        doc = sigma_phi_doc(state="+z")
        doc["value_map"] = "center_on_meter_mean"
        cfg = build_configuration(scenario_from_dict(doc))
        # probe |0> has meter mean +1, so outcomes move to {-2, 0}
        values = [v for v, _ in outcome_probabilities(cfg.model, cfg.state)]
        assert values == pytest.approx([-2.0, 0.0])

    def test_apply_value_map_composes(self):
        m = apply_value_map(build_sigma_phi(0.0), "scale:3")
        m = apply_value_map(m, "shift:1")
        values = [m.value_map_x0(v) for v in (-1.0, 1.0)]
        assert values == pytest.approx([-2.0, 4.0])


class TestFamilyBuilds:
    def test_shift_family_builds_and_is_unbiased(self):
        doc = make_scenario_doc(
            family="shift",
            model_params={"probe_dim": 4,
                          "probe_state": np.array([0.6, 0.8, 0.0, 0.0])},
            state_spec=np.array([1.0, 0.0]),
            x0_spec=np.diag([0.0, 1.0]),
            y0_spec="sigma_y",
        )
        cfg = build_configuration(scenario_from_dict(doc))
        assert cfg.model.probe_dim == 4
        from murel.metrics import unbiasedness_residual_x0

        assert unbiasedness_residual_x0(cfg.model, cfg.x0) < 1e-10

    def test_shift_wraparound_surfaces_as_scenario_error(self):
        doc = make_scenario_doc(
            family="shift",
            model_params={"probe_dim": 4,
                          "probe_state": np.array([0.0, 0.0, 0.0, 1.0])},
            state_spec=np.array([1.0, 0.0]),
            x0_spec=np.diag([0.0, 1.0]),
            y0_spec="sigma_y",
        )
        with pytest.raises(ScenarioError, match="wrap around"):
            build_configuration(scenario_from_dict(doc))

    def test_explicit_family_round_trip(self):
        u = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        doc = make_scenario_doc(
            family="explicit",
            model_params={
                "object_dim": 2,
                "unitary": u,
                "probe_state": np.array([1.0, 0.0]),
                "meter": np.diag([0.0, 1.0]),
            },
            state_spec="+z",
            x0_spec="sigma_z",
            y0_spec="sigma_y",
        )
        cfg = build_configuration(scenario_from_dict(doc))
        assert max_abs(cfg.model.unitary - u) == 0.0

    def test_explicit_non_unitary_diagnostic(self):
        doc = make_scenario_doc(
            family="explicit",
            model_params={
                "object_dim": 2,
                "unitary": np.ones((4, 4)),
                "probe_state": np.array([1.0, 0.0]),
                "meter": np.diag([0.0, 1.0]),
            },
            state_spec="+z",
            x0_spec="sigma_z",
            y0_spec="sigma_y",
        )
        with pytest.raises(ScenarioError, match="non-unitary"):
            build_configuration(scenario_from_dict(doc))

    def test_explicit_dim_cross_checks(self):
        doc = make_scenario_doc(
            family="explicit",
            model_params={
                "object_dim": 3,
                "unitary": np.eye(4),
                "probe_state": np.array([1.0, 0.0]),
                "meter": np.diag([0.0, 1.0]),
            },
            state_spec="+z",
            x0_spec="sigma_z",
            y0_spec="sigma_y",
        )
        with pytest.raises(ScenarioError, match="unitary dim"):
            build_configuration(scenario_from_dict(doc))

    def test_named_state_requires_qubit_object(self):
        doc = make_scenario_doc(
            family="shift",
            model_params={"probe_dim": 8,
                          "probe_state": np.eye(8)[0]},
            state_spec="+x",
            x0_spec=np.diag([0.0, 1.0, 2.0]),
            y0_spec=np.diag([2.0, 1.0, 0.0]),
        )
        with pytest.raises(ScenarioError, match="requires a qubit object"):
            build_configuration(scenario_from_dict(doc))

    def test_observable_dim_mismatch(self):
        doc = sigma_phi_doc()
        doc["observables"]["y0"] = matrix_pairs(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(ScenarioError, match="x0 dim 2 != y0 dim 3"):
            build_configuration(scenario_from_dict(doc))

    def test_sigma_phi_requires_qubit_observables(self):
        doc = sigma_phi_doc()
        doc["observables"]["x0"] = matrix_pairs(np.diag([0.0, 1.0, 2.0]))
        doc["observables"]["y0"] = matrix_pairs(np.diag([2.0, 1.0, 0.0]))
        with pytest.raises(ScenarioError, match="qubit model"):
            build_configuration(scenario_from_dict(doc))

    def test_probe_state_length_mismatch(self):
        doc = make_scenario_doc(
            family="shift",
            model_params={"probe_dim": 4, "probe_state": np.array([1.0, 0.0, 0.0])},
            state_spec="+z",
            x0_spec=np.diag([0.0, 1.0]),
            y0_spec="sigma_y",
        )
        with pytest.raises(ScenarioError, match="probe_state length 3 != probe_dim 4"):
            scenario_from_dict(doc)


class TestSerializationHelpers:
    def test_vector_pairs_shortest_repr(self):
        pairs = vector_pairs(np.array([1 / 3 + 2j / 7]))
        assert pairs == [[1 / 3, 2 / 7]]
        assert json.loads(json.dumps(pairs)) == pairs

    def test_scenario_text_ends_with_newline(self):
        assert scenario_to_text(sigma_phi_doc()).endswith("}\n")


# -- the indented writer ----------------------------------------------------

def reference_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def written_without_json_dumps(doc) -> str:
    """scenario_to_text(doc), failing if it leaves doc to json.dumps."""
    with mock.patch.object(scenario_module.json, "dumps", None):
        return scenario_to_text(doc)


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 0.1, 1 / 3]
JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS)
JSON_TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from("\x00\x1f\x7f\"\\\n\té€😀"), max_size=8)
JSON_LEAVES = st.none() | st.booleans() | st.integers() | JSON_FLOATS | JSON_TEXT
# lists of equal-length float lists take the writer's one-join path, lists of floats the per-item one
FLOAT_LISTS = st.lists(JSON_FLOATS, max_size=5)
FLOAT_ROWS = st.integers(0, 3).flatmap(
    lambda k: st.lists(st.lists(JSON_FLOATS, min_size=k, max_size=k), max_size=4))
JSON_DOCS = st.recursive(
    JSON_LEAVES | FLOAT_LISTS | FLOAT_ROWS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=40,
)


class Level(enum.IntEnum):
    LOW = 1


class Scaled(float):
    pass


# values json.dumps writes that are not plain JSON data, each in a list, a
# dict value and a matrix row
FALLBACK_VALUES = [
    float("nan"), float("inf"), float("-inf"), (1.0, 2.0), (), Level.LOW, Scaled(0.5),
    np.float64(0.25),
]


class TestIndentedWriter:
    @settings(max_examples=100, deadline=None)
    @given(JSON_DOCS)
    def test_equals_json_dumps(self, doc):
        assert written_without_json_dumps(doc) == reference_text(doc)

    @settings(max_examples=50, deadline=None)
    @given(JSON_DOCS, st.sampled_from(FALLBACK_VALUES))
    def test_values_left_to_json_dumps_give_its_text(self, doc, value):
        for wrapped in ([doc, value], {"k": value, "d": doc}, [[1.0, value], [2.0, 3.0]], [[0.5], [value]]):
            assert scenario_to_text(wrapped) == reference_text(wrapped)

    @pytest.mark.parametrize("key", [1, 2.5, True, None], ids=["int", "float", "bool", "none"])
    def test_non_string_keys_give_json_dumps_text(self, key):
        doc = {"a": [[1.0, 2.0]], "nested": {key: [0.5, -0.0], "b": "é"}}
        assert scenario_to_text(doc) == reference_text(doc)

    def test_scenario_documents_of_every_family(self, rng):
        u = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
        probe = np.array([0.6, -0.0, 0.8j, 0.0])
        docs = [
            sigma_phi_doc(phi=-0.0, state=np.array([0.6, 0.8j]), scenario_id="é\x01"),
            make_scenario_doc(family="shift", model_params={"probe_dim": 4, "probe_state": probe},
                              state_spec="+z", x0_spec=np.diag([-0.0, 1e-300]), y0_spec="sigma_y",
                              value_map_spec="scale:1e150", tolerance=5e-324, seed=2**70),
            make_scenario_doc(family="explicit",
                              model_params={"object_dim": 2, "unitary": u, "probe_state": probe,
                                            "meter": np.diag([0.0, 1.0, 2.0, 3.0])},
                              state_spec="+y", x0_spec="sigma_x", y0_spec=np.eye(2)),
        ]
        for doc in docs:
            assert written_without_json_dumps(doc) == reference_text(doc)

    def test_matrix_rows_are_joined_without_recursion_per_pair(self):
        doc = {"m": matrix_pairs(np.ones((64, 64)))}
        with mock.patch.object(scenario_module, "_indented", wraps=scenario_module._indented) as spy:
            text = scenario_to_text(doc)
        assert text == reference_text(doc)
        assert spy.call_count == 2 + 64  # the document, the matrix, one call per row

    def test_circular_and_deep_documents_raise_as_json_dumps_does(self):
        loop: list = [1.0]
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            scenario_to_text({"a": loop})
        deep: list = []
        for _ in range(100_000):
            deep = [deep]
        with pytest.raises(RecursionError):
            scenario_to_text({"a": deep})


# -- the one-array reader ---------------------------------------------------

def per_element(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


_CNOT = [[[1.0 if c == p else 0.0, 0.0] for c in range(4)] for p in (0, 1, 3, 2)]
EXPLICIT = {
    "schema_version": 1,
    "model": {"family": "explicit", "object_dim": 2, "unitary": _CNOT,
              "probe_state": [[1.0, 0.0], [0.0, 0.0]],
              "meter": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    "state": [[0.6, 0.0], [0.0, 0.8]],
    "observables": {"x0": "sigma_x", "y0": "sigma_y"},
}
HUGE_INTEGER = "1" + "0" * 400
BAD_LEAVES = {"true": "true", "string": '"1.5"', "null": "null", "huge-integer": HUGE_INTEGER,
              "nan": "NaN", "infinity": "Infinity"}
BAD_PAIRS = {"three-element-pair": "[0.5, 0.0, 0.0]", "nested-pair": "[[0.5, 0.0]]"}


def malformed_text(site: str, case: str) -> str:
    """EXPLICIT as JSON text, with one malformed leaf, pair or row in unitary row 2 or the state."""
    doc = copy.deepcopy(EXPLICIT)
    row = doc["model"]["unitary"][2] if site == "unitary" else doc["state"]
    literal = None
    if case in BAD_LEAVES:
        row[1][1], literal = "@", BAD_LEAVES[case]
    elif case in BAD_PAIRS:
        row[1], literal = "@", BAD_PAIRS[case]
    elif case == "ragged-row" and site == "unitary":
        del row[3]
    elif case == "ragged-row":
        row[1], literal = "@", "[0.5]"
    elif site == "unitary":  # empty-row
        doc["model"]["unitary"][2], literal = "@", "[]"
    else:
        row[1], literal = "@", "[]"
    text = json.dumps(doc)
    return text if literal is None else text.replace('"@"', literal)


# (path, message) of each malformed input, as the per-element reader words them
U = "scenario.model.unitary"
READER_ERRORS = {
    ("unitary", "true"): (f"{U}[2][1][1]", "expected a number, got True"),
    ("unitary", "string"): (f"{U}[2][1][1]", "expected a number, got '1.5'"),
    ("unitary", "null"): (f"{U}[2][1][1]", "expected a number, got None"),
    ("unitary", "huge-integer"): (f"{U}[2][1][1]", "integer beyond the float range"),
    ("unitary", "nan"): (f"{U}[2][1][1]", "non-finite number nan"),
    ("unitary", "infinity"): (f"{U}[2][1][1]", "non-finite number inf"),
    ("unitary", "three-element-pair"): (f"{U}[2][1]", "expected a [re, im] pair, got [0.5, 0.0, 0.0]"),
    ("unitary", "nested-pair"): (f"{U}[2][1]", "expected a [re, im] pair, got [[0.5, 0.0]]"),
    ("unitary", "ragged-row"): (U, "row 2 has length 3, expected 4 (square matrix)"),
    ("unitary", "empty-row"): (f"{U}[2]", "expected a non-empty list of [re, im] pairs"),
    ("state", "true"): ("scenario.state[1][1]", "expected a number, got True"),
    ("state", "string"): ("scenario.state[1][1]", "expected a number, got '1.5'"),
    ("state", "null"): ("scenario.state[1][1]", "expected a number, got None"),
    ("state", "huge-integer"): ("scenario.state[1][1]", "integer beyond the float range"),
    ("state", "nan"): ("scenario.state[1][1]", "non-finite number nan"),
    ("state", "infinity"): ("scenario.state[1][1]", "non-finite number inf"),
    ("state", "three-element-pair"): ("scenario.state[1]", "expected a [re, im] pair, got [0.5, 0.0, 0.0]"),
    ("state", "nested-pair"): ("scenario.state[1]", "expected a [re, im] pair, got [[0.5, 0.0]]"),
    ("state", "ragged-row"): ("scenario.state[1]", "expected a [re, im] pair, got [0.5]"),
    ("state", "empty-row"): ("scenario.state[1]", "expected a [re, im] pair, got []"),
}


class TestArrayReader:
    @pytest.mark.parametrize("site,case", list(READER_ERRORS), ids=["-".join(k) for k in READER_ERRORS])
    def test_malformed_entries_keep_their_message_and_path(self, site, case):
        path, message = READER_ERRORS[site, case]
        with pytest.raises(ScenarioError) as info:
            parse_scenario(malformed_text(site, case))
        assert info.value.path == path
        assert str(info.value) == f"{path}: {message}"

    def test_integer_matrices_read_as_their_float_values(self):
        ints = json.loads(json.dumps(_CNOT).replace(".0", ""))
        mixed = copy.deepcopy(_CNOT)
        mixed[0][0] = [1, 0.0]
        for doc_unitary in (ints, mixed):
            doc = copy.deepcopy(EXPLICIT)
            doc["model"]["unitary"] = doc_unitary
            doc["state"] = [[1, 0], [0, 0]]
            sc = scenario_from_dict(doc)
            assert np.array_equal(sc.model_params["unitary"], np.array(_CNOT)[..., 0])
            assert sc.model_params["unitary"].dtype == complex
            assert np.array_equal(sc.state_spec, [1, 0])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.lists(JSON_FLOATS, min_size=2, max_size=2), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_arrays_are_bit_identical_to_per_element_reading(self, rows):
        m = scenario_module._complex_matrix(rows, "m")
        assert m.shape == (len(rows), len(rows)) and m.dtype == complex
        assert m.tobytes() == np.array([per_element(r) for r in rows]).tobytes()
        v = scenario_module._complex_vector(rows[0], "v")
        assert v.shape == (len(rows),) and v.tobytes() == per_element(rows[0]).tobytes()

    def test_float_documents_are_read_in_one_array(self, monkeypatch):
        """Float-only vectors and matrices never reach the per-element reader."""
        monkeypatch.setattr(scenario_module, "_complex_pair", None)
        sc = parse_scenario(json.dumps(EXPLICIT))
        assert np.array_equal(sc.model_params["unitary"], np.array(_CNOT)[..., 0])
        assert np.array_equal(sc.state_spec, [0.6, 0.8j])


class TestDocumentPairs:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(JSON_FLOATS, min_size=2 * n * n, max_size=2 * n * n)))
    def test_pairs_keep_every_bit(self, floats):
        n = math.isqrt(len(floats) // 2)
        m = np.array(floats).view(complex).reshape(n, n)
        expected = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        assert json.dumps(matrix_pairs(m)) == json.dumps(expected)
        assert json.dumps(vector_pairs(m[0])) == json.dumps(expected[0])
