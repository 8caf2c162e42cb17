from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_pure, random_state_vector
from murel.linalg import MixedState, PureState, expectation, herm_eig
from murel.metrics import (
    accuracy_commutator_residual,
    conditional_pairs,
    conditional_resolution,
    disturbance_y0,
    error_x0,
    error_xt,
    full_report,
    mvo_stddev,
    random_error,
    stddev,
    systematic_error,
    unbiasedness_residual_x0,
    unbiasedness_residual_xt,
)
from murel.model import (
    ZERO_PROB,
    build_shift_model,
    build_sigma_phi,
    named_qubit_state,
    pauli_observable,
    readout_probabilities,
)

SX = pauli_observable("sigma_x")
SY = pauli_observable("sigma_y")

PHI_DEGREES = (0.0, 40.0, 90.0)
STATES = ("+x", "-x", "+y", "-y", "+z", "-z")


def brute_disturbance(phi: float, psi: PureState) -> float:
    """Disturbance of sigma_y from first principles, independent of murel.

    Rebuilds the coupling unitary directly from the spin component at angle
    phi and evaluates sqrt(<(U^dag (y (x) I) U - y (x) I)^2>) with plain
    numpy operations.
    """
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sp = math.cos(phi) * x + math.sin(phi) * y
    p_plus = (np.eye(2) + sp) / 2
    p_minus = (np.eye(2) - sp) / 2
    u = np.kron(p_plus, np.eye(2)) + np.kron(p_minus, x)
    y_joint = np.kron(y, np.eye(2))
    d = u.conj().T @ y_joint @ u - y_joint
    joint = np.kron(psi.amplitudes, np.array([1.0, 0.0], dtype=complex))
    return float(np.sqrt((joint.conj() @ (d @ (d @ joint))).real))


class TestStddev:
    def test_pure_eigenstate_has_zero_spread(self):
        assert stddev(named_qubit_state("+x"), SX) == pytest.approx(0.0, abs=1e-12)

    def test_pure_superposition(self):
        assert stddev(named_qubit_state("+z"), SX) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_state_matches_weighted_moments(self, rng):
        a = random_hermitian(3, rng)
        p = np.array([0.5, 0.3, 0.2])
        vecs = [random_state_vector(3, rng) for _ in range(3)]
        rho = sum(w * np.outer(v, v.conj()) for w, v in zip(p, vecs))
        rho = (rho + rho.conj().T) / 2
        state = MixedState(rho)
        mean = np.trace(rho @ a).real
        second = np.trace(rho @ a @ a).real
        assert stddev(state, a) == pytest.approx(math.sqrt(second - mean**2), abs=1e-10)


class TestSigmaPhiErrorLaws:
    @pytest.mark.parametrize("phi_deg", PHI_DEGREES)
    @pytest.mark.parametrize("label", STATES)
    def test_error_is_state_independent_half_angle_law(self, phi_deg, label):
        phi = math.radians(phi_deg)
        m = build_sigma_phi(phi)
        eps = error_x0(m, named_qubit_state(label), SX)
        assert eps == pytest.approx(2.0 * abs(math.sin(phi / 2.0)), abs=1e-9)

    @pytest.mark.parametrize("phi_deg", PHI_DEGREES)
    @pytest.mark.parametrize("label", STATES)
    def test_disturbance_matches_brute_force_oracle(self, phi_deg, label):
        phi = math.radians(phi_deg)
        m = build_sigma_phi(phi)
        psi = named_qubit_state(label)
        eta = disturbance_y0(m, psi, SY)
        assert eta == pytest.approx(brute_disturbance(phi, psi), abs=1e-10)

    @pytest.mark.parametrize("phi_deg", PHI_DEGREES)
    @pytest.mark.parametrize("label", STATES)
    def test_disturbance_closed_form(self, phi_deg, label):
        phi = math.radians(phi_deg)
        eta = disturbance_y0(build_sigma_phi(phi), named_qubit_state(label), SY)
        assert eta == pytest.approx(math.sqrt(2.0) * abs(math.cos(phi)), abs=1e-9)

    def test_plus_y_at_right_angle_detuning(self):
        m = build_sigma_phi(math.pi / 2)
        psi = named_qubit_state("+y")
        assert error_x0(m, psi, SX) == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert mvo_stddev(m, psi, SX) == pytest.approx(0.0, abs=1e-9)
        assert stddev(psi, SX) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("phi_deg", PHI_DEGREES)
    def test_bias_on_x_eigenstates(self, phi_deg):
        phi = math.radians(phi_deg)
        m = build_sigma_phi(phi)
        delta_plus, eps_sys_plus = systematic_error(m, named_qubit_state("+x"), SX)
        delta_minus, eps_sys_minus = systematic_error(m, named_qubit_state("-x"), SX)
        assert delta_plus == pytest.approx(math.cos(phi) - 1.0, abs=1e-9)
        assert delta_minus == pytest.approx(1.0 - math.cos(phi), abs=1e-9)
        assert eps_sys_plus == pytest.approx(abs(math.cos(phi) - 1.0), abs=1e-12)
        assert eps_sys_minus == pytest.approx(eps_sys_plus, abs=1e-12)

    @pytest.mark.parametrize("phi_deg", PHI_DEGREES)
    @pytest.mark.parametrize("label", ["+x", "-x"])
    def test_random_error_decomposition_value(self, phi_deg, label):
        phi = math.radians(phi_deg)
        m = build_sigma_phi(phi)
        # eps^2 - eps_sys^2 = 4 sin^2(phi/2) - (1-cos phi)^2 = sin^2(phi)
        assert random_error(m, named_qubit_state(label), SX) == pytest.approx(
            abs(math.sin(phi)), abs=1e-9
        )

    def test_random_error_rejected_off_eigenstates(self):
        m = build_sigma_phi(0.4)
        with pytest.raises(ValueError, match="random error undefined"):
            random_error(m, named_qubit_state("+y"), SX)

    def test_frozen_values_at_40_degrees(self):
        m = build_sigma_phi(math.radians(40.0))
        psi = named_qubit_state("+x")
        assert error_x0(m, psi, SX) == pytest.approx(0.6840402866513374, abs=1e-12)
        assert systematic_error(m, psi, SX)[1] == pytest.approx(0.2339555568810259, abs=1e-12)
        assert random_error(m, psi, SX) == pytest.approx(0.6427876096865393, abs=1e-12)
        # the half-angle candidate law gives a different number at 40 degrees
        assert abs(math.sin(math.radians(40.0) / 2.0)) == pytest.approx(
            0.3420201433256687, abs=1e-15
        )


class TestCalibrationResiduals:
    @pytest.mark.parametrize("phi_deg", PHI_DEGREES)
    def test_sigma_phi_residuals_closed_form(self, phi_deg):
        phi = math.radians(phi_deg)
        m = build_sigma_phi(phi)
        assert unbiasedness_residual_x0(m, SX) == pytest.approx(
            2.0 * abs(math.sin(phi / 2.0)), abs=1e-9
        )
        assert unbiasedness_residual_xt(m, SX) == pytest.approx(
            1.0 - math.cos(phi), abs=1e-9
        )

    def test_commutator_residual_zero_iff_calibrated(self):
        assert accuracy_commutator_residual(build_sigma_phi(0.0), SX, SY) == pytest.approx(
            0.0, abs=1e-9
        )
        assert accuracy_commutator_residual(build_sigma_phi(0.7), SX, SY) > 0.1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_shift_model_is_exactly_unbiased(self, seed):
        rng = np.random.default_rng(seed)
        x0 = herm_eig(np.diag([0.0, 1.0]))
        window = random_state_vector(3, rng)
        probe = PureState(np.concatenate([window, [0.0]]))
        m = build_shift_model(x0, 4, probe)
        assert unbiasedness_residual_x0(m, x0) < 1e-10
        assert unbiasedness_residual_xt(m, x0) < 1e-10
        y0 = herm_eig(random_hermitian(2, rng))
        assert accuracy_commutator_residual(m, x0, y0) < 1e-9


class TestVarianceIdentity:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_unbiased_value_variance_splits(self, seed):
        rng = np.random.default_rng(seed)
        x0 = herm_eig(np.diag([0.0, 1.0]))
        probe = PureState(np.concatenate([random_state_vector(3, rng), [0.0]]))
        m = build_shift_model(x0, 4, probe)
        psi = random_pure(2, rng)
        lhs = mvo_stddev(m, psi, x0) ** 2
        rhs = stddev(psi, x0) ** 2 + error_x0(m, psi, x0) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_identity_fails_when_detuned(self):
        m = build_sigma_phi(math.radians(40.0))
        psi = named_qubit_state("+x")
        lhs = mvo_stddev(m, psi, SX) ** 2
        rhs = stddev(psi, SX) ** 2 + error_x0(m, psi, SX) ** 2
        assert abs(lhs - rhs) > 0.05


class TestConditionalResolution:
    @pytest.mark.parametrize("phi_deg", [10.0, 40.0, 90.0])
    def test_closed_form_on_conditioned_states(self, phi_deg):
        phi = math.radians(phi_deg)
        m = build_sigma_phi(phi)
        psi = named_qubit_state("+z")
        eps, sigma = conditional_resolution(m, psi, SX, 1.0)
        assert sigma == pytest.approx(abs(math.sin(phi)), abs=1e-9)
        assert eps == pytest.approx(2.0 * abs(math.sin(phi / 2.0)), abs=1e-9)

    def test_decomposition_identity_computed_directly(self, rng):
        m = build_sigma_phi(0.9)
        psi = random_pure(2, rng)
        for readout, _prob, eps, sigma in conditional_pairs(m, psi, SX):
            from murel.model import conditional_post_state

            rho, _ = conditional_post_state(m, psi, readout)
            mval = float(m.value_map_xt(readout))
            a = SX.matrix - mval * np.eye(2)
            eps_direct = math.sqrt(max(np.trace(rho.rho @ a @ a).real, 0.0))
            assert eps == pytest.approx(eps_direct, abs=1e-10)
            bias = np.trace(rho.rho @ SX.matrix).real - mval
            assert eps**2 == pytest.approx(sigma**2 + bias**2, abs=1e-10)

    def test_a_floor_below_zero_prob_still_skips_impossible_readouts(self):
        m = build_sigma_phi(1e-7)
        psi = named_qubit_state("+x")
        assert 0.0 < dict(readout_probabilities(m, psi))[-1.0] <= ZERO_PROB
        assert [p[0] for p in conditional_pairs(m, psi, SX, floor=0.0)] == [1.0]

    def test_pairs_cover_all_likely_readouts(self):
        m = build_sigma_phi(0.5)
        pairs = conditional_pairs(m, named_qubit_state("+z"), SX)
        assert [p[0] for p in pairs] == [-1.0, 1.0]
        assert sum(p[1] for p in pairs) == pytest.approx(1.0, abs=1e-12)


class TestFullReport:
    def test_collects_consistent_fields(self):
        m = build_sigma_phi(math.radians(40.0))
        psi = named_qubit_state("+x")
        r = full_report(m, psi, SX, SY)
        assert r.eps_x0 == pytest.approx(error_x0(m, psi, SX), abs=1e-15)
        assert r.eta_y0 == pytest.approx(disturbance_y0(m, psi, SY), abs=1e-15)
        assert r.sigma_mvo == pytest.approx(mvo_stddev(m, psi, SX), abs=1e-15)
        assert r.eps_sys == abs(r.delta)
        assert r.eps_rand == pytest.approx(random_error(m, psi, SX), abs=1e-15)

    def test_random_error_absent_off_eigenstates(self):
        m = build_sigma_phi(0.4)
        assert full_report(m, named_qubit_state("+y"), SX, SY).eps_rand is None

    def test_error_xt_vanishes_for_calibrated_model(self):
        m = build_sigma_phi(0.0)
        for label in STATES:
            assert error_xt(m, named_qubit_state(label), SX) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("state,operator,error,message", [
    (named_qubit_state("+x"), np.eye(3), ValueError, r"^operator shape \(3, 3\) does not match state dim 2$"),
    # not Hermitian, so its "variance" <B^2> = -1 is no round-off
    (MixedState(np.eye(2) / 2), np.array([[0.0, 1.0], [-1.0, 0.0]]), ArithmeticError, r"^negative variance -1\.0 "),
], ids=["shape", "negative-variance"])
def test_stddev_rejects_an_operator_it_cannot_spread(state, operator, error, message):
    with pytest.raises(error, match=message):
        stddev(state, operator)
