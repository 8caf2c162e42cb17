from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pure, random_state_vector
import murel.model as model_module
from murel.linalg import PureState, expectation, herm_eig, max_abs, tensor
from murel.metrics import Evaluation
from murel.model import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    IndirectModel,
    build_shift_model,
    build_sigma_phi,
    composite_input,
    conditional_post_state,
    evolve,
    named_qubit_state,
    outcome_probabilities,
    pauli_observable,
    readout_probabilities,
    rescale_mvo,
    sigma_phi_matrix,
)

SX = pauli_observable("sigma_x")
SY = pauli_observable("sigma_y")


def two_level_x0():
    return herm_eig(np.diag([0.0, 1.0]))


class TestNamedObjects:
    @pytest.mark.parametrize("name,matrix", [("sigma_x", PAULI_X), ("sigma_y", PAULI_Y),
                                             ("sigma_z", PAULI_Z), ("identity", ID2)])
    def test_observable_matrices(self, name, matrix):
        assert max_abs(pauli_observable(name).matrix - matrix) == 0.0

    @pytest.mark.parametrize("label,name,sign", [
        ("+x", "sigma_x", 1), ("-x", "sigma_x", -1),
        ("+y", "sigma_y", 1), ("-y", "sigma_y", -1),
        ("+z", "sigma_z", 1), ("-z", "sigma_z", -1),
    ])
    def test_states_are_eigenstates(self, label, name, sign):
        psi = named_qubit_state(label)
        val = expectation(psi, pauli_observable(name).matrix)
        assert val.real == pytest.approx(sign, abs=1e-12)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown observable"):
            pauli_observable("sigma_w")
        with pytest.raises(ValueError, match="unknown state"):
            named_qubit_state("+w")

    def test_sigma_phi_matrix_interpolates(self):
        assert max_abs(sigma_phi_matrix(0.0) - PAULI_X) == 0.0
        assert max_abs(sigma_phi_matrix(math.pi / 2) - PAULI_Y) < 1e-15


class TestIndirectModelValidation:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="non-unitary"):
            IndirectModel(
                object_dim=2, probe_dim=2, unitary=np.ones((4, 4)),
                probe_state=PureState(np.array([1.0, 0.0])),
                meter=herm_eig(PAULI_Z),
            )

    def test_rejects_dim_mismatches(self):
        with pytest.raises(ValueError, match="unitary dim"):
            IndirectModel(
                object_dim=2, probe_dim=3, unitary=np.eye(4),
                probe_state=PureState(np.array([1.0, 0.0, 0.0])),
                meter=herm_eig(np.diag([0.0, 1.0, 2.0])),
            )
        with pytest.raises(ValueError, match="probe state dim"):
            IndirectModel(
                object_dim=2, probe_dim=2, unitary=np.eye(4),
                probe_state=PureState(np.array([1.0, 0.0, 0.0])),
                meter=herm_eig(PAULI_Z),
            )
        with pytest.raises(ValueError, match="meter dim"):
            IndirectModel(
                object_dim=2, probe_dim=2, unitary=np.eye(4),
                probe_state=PureState(np.array([1.0, 0.0])),
                meter=herm_eig(np.diag([0.0, 1.0, 2.0])),
            )

    def test_value_map_xt_defaults_to_x0_map(self):
        m = build_sigma_phi(0.3)
        assert m.value_map_xt is m.value_map_x0

    def test_composite_input_index_order(self, rng):
        m = build_sigma_phi(0.5)
        psi = random_pure(2, rng)
        joint = composite_input(m, psi)
        for i in range(2):
            for k in range(2):
                want = psi.amplitudes[i] * m.probe_state.amplitudes[k]
                assert joint[i * 2 + k] == pytest.approx(want)


class TestSigmaPhiModel:
    def test_unitary_copies_phi_label_to_pointer(self):
        phi = 0.7
        m = build_sigma_phi(phi)
        sp = herm_eig(sigma_phi_matrix(phi))
        minus, plus = sp.eigenvectors[:, 0], sp.eigenvectors[:, 1]
        zero = np.array([1.0, 0.0], dtype=complex)
        one = np.array([0.0, 1.0], dtype=complex)
        assert max_abs(m.unitary @ np.kron(plus, zero) - np.kron(plus, zero)) < 1e-12
        assert max_abs(m.unitary @ np.kron(minus, zero) - np.kron(minus, one)) < 1e-12

    @pytest.mark.parametrize("phi", [0.0, 0.4, math.pi / 4, math.pi / 2])
    def test_meter_heisenberg_operator_is_sigma_phi_tensor_z(self, phi):
        m = build_sigma_phi(phi)
        ev = evolve(m, SX, SY)
        assert max_abs(ev.X_t - tensor(sigma_phi_matrix(phi), PAULI_Z)) < 1e-10

    def test_identity_value_map_keeps_mvo_equal_to_meter_operator(self):
        ev = evolve(build_sigma_phi(0.9), SX, SY)
        assert max_abs(ev.mvo_x0 - ev.X_t) < 1e-10
        assert max_abs(ev.mvo_xt - ev.X_t) < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, math.pi / 2))
    def test_born_rule_matches_projector_expectation(self, seed, phi):
        rng = np.random.default_rng(seed)
        psi = random_pure(2, rng)
        m = build_sigma_phi(phi)
        probs = dict(readout_probabilities(m, psi))
        p_plus_analytic = float(
            expectation(psi, (ID2 + sigma_phi_matrix(phi)) / 2).real
        )
        assert probs[1.0] == pytest.approx(p_plus_analytic, abs=1e-10)
        assert probs[-1.0] == pytest.approx(1.0 - p_plus_analytic, abs=1e-10)
        assert all(-1e-12 <= p <= 1 + 1e-12 for p in probs.values())


class TestShiftModel:
    def test_meter_heisenberg_operator_diagonal_oracle(self):
        # x0 eigenbasis is computational, so X_t must be diagonal with
        # pointer + eigenvalue (mod register size) on the diagonal.
        x0 = two_level_x0()
        probe = PureState(np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0))
        m = build_shift_model(x0, 4, probe)
        ev = evolve(m, x0, SY)
        want = np.zeros((8, 8))
        for i, e in enumerate([0, 1]):
            for k in range(4):
                want[i * 4 + k, i * 4 + k] = (k + e) % 4
        assert max_abs(ev.X_t - want) < 1e-10

    def test_unitary_is_a_permutation_of_product_basis(self):
        x0 = two_level_x0()
        probe = PureState(np.array([0.0, 1.0, 0.0, 0.0], dtype=complex))
        m = build_shift_model(x0, 4, probe)
        u = m.unitary.real
        assert max_abs(m.unitary.imag) == 0.0
        assert np.all(np.isin(np.round(u, 12), [0.0, 1.0]))
        assert np.all(u.sum(axis=0) == pytest.approx(1.0))
        assert np.all(u.sum(axis=1) == pytest.approx(1.0))

    def test_readout_distribution_matches_convolution_oracle(self, rng):
        x0 = two_level_x0()
        probe_vec = random_state_vector(3, rng)
        probe = PureState(np.concatenate([probe_vec, [0.0]]))
        m = build_shift_model(x0, 4, probe)
        psi = random_pure(2, rng)
        got = dict(readout_probabilities(m, psi))
        want = {float(v): 0.0 for v in range(4)}
        shifts = [0, 1]
        for i, e in enumerate(shifts):
            for k in range(4):
                amp = psi.amplitudes[i] * probe.amplitudes[k]
                want[float(k + e)] = want.get(float(k + e), 0.0) + abs(amp) ** 2
        for v in range(4):
            assert got[float(v)] == pytest.approx(want[float(v)], abs=1e-12)

    def test_values_center_on_initial_pointer_mean(self, rng):
        x0 = two_level_x0()
        probe = PureState(np.array([0.6, 0.8, 0.0, 0.0], dtype=complex))
        m = build_shift_model(x0, 4, probe)
        psi = random_pure(2, rng)
        mean_value = sum(v * p for v, p in outcome_probabilities(m, psi))
        assert mean_value == pytest.approx(float(expectation(psi, x0.matrix).real), abs=1e-10)

    def test_wraparound_rejected_at_top_of_register(self):
        x0 = two_level_x0()
        probe = PureState(np.array([0.0, 0.0, 0.0, 1.0], dtype=complex))
        with pytest.raises(ValueError, match="wrap around"):
            build_shift_model(x0, 4, probe)

    def test_wraparound_rejected_below_zero(self):
        x0 = herm_eig(np.diag([-1.0, 0.0]))
        probe = PureState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        with pytest.raises(ValueError, match="wrap around"):
            build_shift_model(x0, 4, probe)

    def test_unpopulated_edge_levels_are_allowed(self):
        x0 = two_level_x0()
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0
        amps[3] = 1e-14  # below the populated threshold
        build_shift_model(x0, 4, PureState(amps / np.linalg.norm(amps)))

    def test_non_integer_spectrum_rejected(self):
        x0 = herm_eig(np.diag([0.0, 0.5]))
        with pytest.raises(ValueError, match="not integer"):
            build_shift_model(x0, 4, PureState(np.array([1.0, 0.0, 0.0, 0.0])))

    def test_degenerate_spectrum_acts_blockwise(self, rng):
        x0 = herm_eig(np.diag([1.0, 1.0]))
        probe = PureState(np.array([1.0, 0.0, 0.0], dtype=complex))
        m = build_shift_model(x0, 3, probe)
        psi = random_pure(2, rng)
        probs = dict(readout_probabilities(m, psi))
        assert probs[1.0] == pytest.approx(1.0, abs=1e-12)


class TestRescale:
    def test_composes_on_top_of_existing_calibration(self, rng):
        x0 = two_level_x0()
        probe = PureState(np.array([0.6, 0.8, 0.0, 0.0], dtype=complex))
        base = build_shift_model(x0, 4, probe)
        scaled = rescale_mvo(base, lambda v: 100.0 * v)
        psi = random_pure(2, rng)
        base_vals = [v for v, _ in outcome_probabilities(base, psi)]
        scaled_vals = [v for v, _ in outcome_probabilities(scaled, psi)]
        assert scaled_vals == pytest.approx([100.0 * v for v in base_vals], abs=1e-9)

    def test_leaves_xt_value_map_untouched(self):
        base = build_sigma_phi(0.3)
        scaled = rescale_mvo(base, lambda v: 100.0 * v)
        ev_base = evolve(base, SX, SY)
        ev_scaled = evolve(scaled, SX, SY)
        assert max_abs(ev_scaled.mvo_x0 - 100.0 * ev_base.mvo_x0) < 1e-10
        assert max_abs(ev_scaled.mvo_xt - ev_base.mvo_xt) == 0.0
        assert max_abs(ev_scaled.x_t - ev_base.x_t) == 0.0

    def test_constant_map_merges_outcomes(self):
        m = rescale_mvo(build_sigma_phi(0.4), lambda v: 0.0)
        pairs = outcome_probabilities(m, named_qubit_state("+z"))
        assert len(pairs) == 1
        assert pairs[0] == (0.0, pytest.approx(1.0))


class TestConditionalPostState:
    def test_projects_onto_phi_eigenstate(self):
        phi = 0.8
        m = build_sigma_phi(phi)
        psi = named_qubit_state("+z")
        sp = herm_eig(sigma_phi_matrix(phi))
        plus = sp.eigenvectors[:, 1]
        rho, prob = conditional_post_state(m, psi, 1.0)
        overlap = abs(np.vdot(plus, psi.amplitudes)) ** 2
        assert prob == pytest.approx(overlap, abs=1e-12)
        assert max_abs(rho.rho - np.outer(plus, plus.conj())) < 1e-10

    def test_probabilities_match_readout_distribution(self, rng):
        m = build_sigma_phi(0.6)
        psi = random_pure(2, rng)
        for value, prob in readout_probabilities(m, psi):
            _, cond_prob = conditional_post_state(m, psi, value)
            assert cond_prob == pytest.approx(prob, abs=1e-12)

    def test_zero_probability_conditioning_rejected(self):
        m = build_sigma_phi(math.pi / 2)
        with pytest.raises(ValueError, match="conditioning undefined"):
            conditional_post_state(m, named_qubit_state("+y"), -1.0)

    def test_non_eigenvalue_readout_rejected(self):
        m = build_sigma_phi(0.1)
        with pytest.raises(ValueError, match="not a meter eigenvalue"):
            conditional_post_state(m, named_qubit_state("+z"), 0.5)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.0, math.pi / 2))
def test_readout_probabilities_form_a_distribution(seed, phi):
    rng = np.random.default_rng(seed)
    m = build_sigma_phi(phi)
    psi = random_pure(2, rng)
    pairs = readout_probabilities(m, psi)
    assert [v for v, _ in pairs] == [-1.0, 1.0]
    assert sum(p for _, p in pairs) == pytest.approx(1.0, abs=1e-12)


def test_named_objects_and_sigma_phi_are_built_once(monkeypatch):
    def rebuilt(*args, **kwargs):
        raise AssertionError("built again")

    monkeypatch.setattr(model_module, "herm_eig", rebuilt)
    monkeypatch.setattr(model_module, "PureState", rebuilt)
    m = build_sigma_phi(0.3)
    assert m.meter is pauli_observable("sigma_z")
    assert m.probe_state is named_qubit_state("+z")
    assert pauli_observable("sigma_y") is pauli_observable("sigma_y")
    assert named_qubit_state("-y") is named_qubit_state("-y")


QUTRIT_STATE = PureState(np.array([1.0, 0.0, 0.0], dtype=complex))
QUTRIT_OBSERVABLE = herm_eig(np.diag([0.0, 1.0, 2.0]))
STATE_MISFITS = {
    "composite_input": lambda m: composite_input(m, QUTRIT_STATE),
    "readout_probabilities": lambda m: readout_probabilities(m, QUTRIT_STATE),
    "conditional_post_state": lambda m: conditional_post_state(m, QUTRIT_STATE, 1.0),
    "Evaluation": lambda m: Evaluation(m, QUTRIT_STATE, SX, SY),
}
OBSERVABLE_MISFITS = {
    "evolve": lambda m: evolve(m, QUTRIT_OBSERVABLE, SY),
    "Evaluation": lambda m: Evaluation(m, named_qubit_state("+x"), SX, QUTRIT_OBSERVABLE),
}


@pytest.mark.parametrize("call", STATE_MISFITS.values(), ids=STATE_MISFITS)
def test_a_state_that_does_not_fit_the_object_is_rejected_with_one_message(call):
    with pytest.raises(ValueError, match=r"^object state dim 3 != model object dim 2$"):
        call(build_sigma_phi(0.3))


@pytest.mark.parametrize("construct,message", [
    (lambda: IndirectModel(0, 2, np.eye(2), named_qubit_state("+z"), pauli_observable("sigma_z")),
     r"^dimensions must be positive$"),
    (lambda: build_shift_model(two_level_x0(), 4, named_qubit_state("+z")),
     r"^probe state dim does not match probe_dim$"),
], ids=["object-dim-0", "shift-probe-state-dim"])
def test_model_constructors_reject_dimensions_that_do_not_fit(construct, message):
    with pytest.raises(ValueError, match=message):
        construct()


@pytest.mark.parametrize("call", OBSERVABLE_MISFITS.values(), ids=OBSERVABLE_MISFITS)
def test_an_observable_that_does_not_fit_the_object_is_rejected_with_one_message(call):
    with pytest.raises(ValueError, match=r"^observable dims do not match the model object dim$"):
        call(build_sigma_phi(0.3))
