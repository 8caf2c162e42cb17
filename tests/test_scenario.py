from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from murel.linalg import max_abs
from murel.model import build_sigma_phi, outcome_probabilities, pauli_observable
from murel.relations import RelationId, check
from murel.scenario import (
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
